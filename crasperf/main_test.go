package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced at the same seed. Both must pass their correctness checks and
// agree exactly in virtual time, and between them they must produce every
// metric BENCHMARK.json names, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var reps [2]*repResult
			for i := range reps {
				res, err := runRep(repConfig{w: w, seed: 3, scale: 0.05, trace: i == 1, outDir: t.TempDir(), tag: "test"})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Problems) > 0 || res.Failed > 0 {
					t.Fatalf("%d failed operations; problems: %v", res.Failed, res.Problems)
				}
				if res.Service.Offered == 0 || res.Service.Due == 0 {
					t.Fatalf("nothing played: %+v", res.Service)
				}
				reps[i] = res
			}
			if a, b := fingerprint(reps[0]), fingerprint(reps[1]); a != b {
				t.Errorf("same seed, different virtual-time results:\n%s\n%s", a, b)
			}
			check := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
				if len(got) != len(want) {
					t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
				}
				for _, m := range want {
					if g, ok := got[m.Name]; !ok {
						t.Errorf("%s: %s not printed", kind, m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
					}
				}
			}
			check("end_to_end", s.EndToEnd, endToEnd(reps[:1], pool(reps[:1])))
			check("per_layer", s.PerLayer, layerMetrics(reps[:1], reps[1:]))
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
