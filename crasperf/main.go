// Command crasperf is the CRAS benchmark. It runs one seeded workload
// against the simulated server several times, each repetition in a fresh
// child process, checks what every viewer received, and prints the
// workload's metrics: viewer-facing service in virtual time and the cost
// of running the simulation in wall time. With -trace 1 it prints the
// per-layer metrics instead, from repetitions that record spans and a CPU
// profile, beside untraced repetitions that give the tracing overhead.
//
// Usage:
//
//	crasperf -workload testbed|fleet|cluster-zipf [-seed 1] [-seconds 10] [-trace 0|1] [-out dir]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// a correctness check or the determinism guard fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	maxReps = 40
	// wallBudget stops launching repetitions well before the 180 s a run
	// may take.
	wallBudget = 120 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "testbed", "workload: testbed, fleet or cluster-zipf")
		seed    = flag.Int64("seed", 1, "seed for every random draw of the workload")
		seconds = flag.Float64("seconds", 10, "wall seconds of measured phase to collect")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
		out     = flag.String("out", ".bench_build/crasperf", "directory for spans and profiles")
		child   = flag.String("child", "", "run one repetition with this tag and print its result (internal)")
		traced  = flag.Bool("traced", false, "trace the child repetition (internal)")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crasperf:", err)
		os.Exit(2)
	}
	if *child != "" {
		res, err := runRep(repConfig{w: w, seed: *seed, scale: 1, trace: *traced, outDir: *out, tag: *child})
		if err != nil {
			fmt.Fprintln(os.Stderr, "crasperf:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "crasperf:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "crasperf:", err)
		os.Exit(1)
	}
	sum, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crasperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crasperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// seedsPerRun is how many workload scripts one run pools its service
// metrics over. They are derived from the run's seed, so the pooled
// metrics stay a pure function of it, with half the spread of one script.
const seedsPerRun = 4

func derivedSeed(seed int64, r int) int64 { return seed*seedsPerRun + int64(r) }

// run collects repetitions until the measured phases add up to seconds,
// checks them and reduces them to the reported metrics. Repetitions cycle
// through the run's derived seeds; every repeat of a seed must reproduce
// its first repetition exactly.
func run(w *workload, seed int64, seconds float64, trace bool, out string) (*summary, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fmt.Printf("crasperf %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		w.name, seed, seconds, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	// A plain run repeats every seed at least once, so the determinism
	// guard always has something to compare and each seed has a best
	// repetition to report. A traced run pairs an untraced and a traced
	// repetition of each seed, which also gives the overhead like for like.
	minReps := 2 * seedsPerRun
	start := time.Now()
	sum := &summary{Correct: true}
	first := map[int64]*repResult{}
	var plain, traced []*repResult
	var measured float64
	for n := 0; n < maxReps; n++ {
		paired := !trace || n%2 == 0 // a traced run stops between pairs
		if n >= minReps && paired && (measured >= seconds || time.Since(start) > wallBudget) {
			break
		}
		r, withTrace := n%seedsPerRun, false
		if trace {
			r, withTrace = n/2%seedsPerRun, n%2 == 1
		}
		ds := derivedSeed(seed, r)
		tag := fmt.Sprintf("%s-%d-%d", w.name, ds, n)
		res, err := child(self, w.name, ds, out, tag, withTrace)
		if err != nil {
			return nil, err
		}
		measured += res.MeasureS
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for _, p := range res.Problems {
			fmt.Printf("PROBLEM: seed %d: %s\n", ds, p)
			sum.Correct = false
		}
		// Determinism guard: everything measured in virtual time is a pure
		// function of the seed.
		if f, ok := first[ds]; !ok {
			first[ds] = res
		} else if a, b := fingerprint(f), fingerprint(res); a != b {
			fmt.Printf("PROBLEM: seed %d: repetition %d disagrees with the first in virtual time\n", ds, n)
			sum.Correct = false
		}
		if withTrace {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	if sum.Failed > 0 {
		sum.Correct = false
	}
	var scripts []*repResult
	for r := 0; r < seedsPerRun; r++ {
		scripts = append(scripts, first[derivedSeed(seed, r)])
	}
	sv := pool(scripts)
	fmt.Printf("repetitions: %d untraced, %d traced over seeds %d..%d\n",
		len(plain), len(traced), derivedSeed(seed, 0), derivedSeed(seed, seedsPerRun-1))
	fmt.Printf("viewers: %d offered, %d refused; %.0f stream-cycles\n", sv.Offered, sv.Refused, sv.StreamCycles)
	fmt.Printf("samples behind percentiles: open %d, startup %d, ctl %d\n",
		len(sv.OpenMs), len(sv.StartupMs), len(sv.CtlMs))
	fmt.Printf("frames due %d: on time %d, late %d, lost %d (%.4f lost per 1k)\n",
		sv.Due, sv.OnTime, sv.Late, sv.Lost, 1000*ratio(float64(sv.Lost), float64(sv.Due)))
	if trace {
		sum.Metrics = layerMetrics(plain, traced)
	} else {
		sum.Metrics = endToEnd(plain, sv)
	}
	names := make([]string, 0, len(sum.Metrics))
	for k := range sum.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, sum.Metrics[k].Value, sum.Metrics[k].Unit)
	}
	return sum, nil
}

// pool merges the service results of several scripts.
func pool(rs []*repResult) service {
	var p service
	for _, r := range rs {
		s := r.Service
		p.Offered += s.Offered
		p.Refused += s.Refused
		p.Due += s.Due
		p.OnTime += s.OnTime
		p.Late += s.Late
		p.Lost += s.Lost
		p.StreamCycles += s.StreamCycles
		p.OpenMs = append(p.OpenMs, s.OpenMs...)
		p.StartupMs = append(p.StartupMs, s.StartupMs...)
		p.CtlMs = append(p.CtlMs, s.CtlMs...)
	}
	return p
}

// child runs one repetition in a fresh process, so no repetition inherits
// another's heap, goroutines or garbage.
func child(self, name string, seed int64, out, tag string, traced bool) (*repResult, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-out", out, "-child", tag, "-traced="+strconv.FormatBool(traced))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition %s: %w", tag, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("repetition %s: %w", tag, err)
	}
	return &res, nil
}

// fingerprint renders a repetition's virtual-time results exactly.
func fingerprint(r *repResult) string {
	b, _ := json.Marshal(struct { // numbers, strings and slices of them always marshal
		S service
		L map[string]float64
		A int
	}{r.Service, r.Layer, r.Attempted})
	return string(b)
}

// endToEnd reduces untraced repetitions to the end-to-end metrics: CPU
// times from each script's best repetition, Go runtime costs as medians
// over repetitions, service metrics over the pooled scripts.
func endToEnd(reps []*repResult, sv service) map[string]metric {
	med := func(f func(r *repResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	// Times are CPU seconds and take each script's best repetition:
	// interference from the rest of the machine only ever adds time, so
	// the cheapest repetition is the steadiest estimate of what the code
	// costs.
	best := func(f func(r *repResult) float64) float64 {
		low := map[int64]float64{}
		for _, r := range reps {
			if v, ok := low[r.Seed]; !ok || f(r) < v {
				low[r.Seed] = f(r)
			}
		}
		xs := make([]float64, 0, len(low))
		for _, v := range low {
			xs = append(xs, v)
		}
		return median(xs)
	}
	return map[string]metric{
		"stream_cycles_per_cpu_s":      {1 / best(func(r *repResult) float64 { return r.MeasureCPU / r.Service.StreamCycles }), "1/s"},
		"setup_s":                      {best(func(r *repResult) float64 { return r.SetupS }), "s"},
		"allocs_per_stream_cycle":      {med(func(r *repResult) float64 { return float64(r.Allocs) / r.Service.StreamCycles }), "count"},
		"alloc_bytes_per_stream_cycle": {med(func(r *repResult) float64 { return float64(r.AllocBytes) / r.Service.StreamCycles }), "B"},
		"peak_heap_mb":                 {med(func(r *repResult) float64 { return r.PeakHeapMB }), "MB"},
		"refused_share":                {ratio(float64(sv.Refused), float64(sv.Offered)), "share"},
		"open_p50_ms":                  {percentile(sv.OpenMs, 0.5), "ms"},
		"open_p90_ms":                  {percentile(sv.OpenMs, 0.9), "ms"},
		"startup_p50_ms":               {percentile(sv.StartupMs, 0.5), "ms"},
		"startup_p90_ms":               {percentile(sv.StartupMs, 0.9), "ms"},
		"ctl_p95_ms":                   {percentile(sv.CtlMs, 0.95), "ms"},
		"on_time_per_1k":               {1000 * ratio(float64(sv.OnTime), float64(sv.Due)), "per_1k"},
		"in_hand_per_1k":               {1000 * ratio(float64(sv.OnTime+sv.Late), float64(sv.Due)), "per_1k"},
	}
}

// layerMetrics reduces a traced run: layer figures as medians over the
// traced repetitions, CPU shares from their pooled profiles, and the
// overhead of tracing from the two kinds' median stream-cycle rates.
func layerMetrics(plain, traced []*repResult) map[string]metric {
	units := map[string]string{
		"sim.events_per_stream_cycle":      "count",
		"rtm.preemptions_per_stream_cycle": "count",
		"rtm.viewer_wait_p90_us":           "us",
		"rtm.arrival_lag_p90_ms":           "ms",
		"disk.rt_ops_per_stream_cycle":     "count",
		"disk.normal_ops_per_s":            "1/s",
		"disk.bytes_per_op":                "B",
		"disk.util_mean":                   "share",
		"disk.util_max":                    "share",
		"disk.queue_wait_ms_per_op":        "ms",
		"disk.seek_ms_per_op":              "ms",
		"ufs.calls_per_s":                  "1/s",
		"ufs.cache_hit_ratio":              "share",
		"ufs.cache_misses_per_s":           "1/s",
		"core.reads_per_stream_cycle":      "count",
		"core.bytes_read_per_stream_cycle": "B",
		"core.deadline_misses":             "count",
		"core.stamp_slack_p10_ms":          "ms",
		"core.shared_chunk_share":          "share",
		"core.fallback_share":              "share",
		"core.vcr_refused_share":           "share",
		"core.requests_shed":               "count",
		"cluster.placement_share":          "share",
		"cluster.ring_share":               "share",
		"cluster.spill_share":              "share",
		"cluster.open_rejects":             "count",
		"cluster.heartbeats_per_s":         "1/s",
	}
	out := map[string]metric{}
	for k, u := range units {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.Layer[k]
		}
		out[k] = metric{median(xs), u}
	}
	var nsPerEvent, gcPerS, slices, writes []float64
	cpu := map[string]int64{}
	var cpuTotal int64
	for _, r := range traced {
		nsPerEvent = append(nsPerEvent, r.MeasureCPU*1e9/float64(r.Events))
		gcPerS = append(gcPerS, float64(r.GCs)/r.MeasureS)
		slices = append(slices, r.SliceMs...)
		writes = append(writes, float64(r.WriteOps))
		for l, n := range r.CPU {
			cpu[l] += n
			cpuTotal += n
		}
	}
	out["sim.ns_per_event"] = metric{median(nsPerEvent), "ns"}
	out["sim.slice_p99_ms"] = metric{percentile(slices, 0.99), "ms"}
	out["go.gc_cycles_per_s"] = metric{median(gcPerS), "1/s"}
	out["disk.write_ops"] = metric{median(writes), "count"}
	for _, l := range layers {
		out[l+".cpu_share"] = metric{ratio(float64(cpu[l]), float64(cpuTotal)), "share"}
	}
	rate := func(reps []*repResult) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r.Service.StreamCycles / r.MeasureCPU
		}
		return median(xs)
	}
	out["trace.overhead_share"] = metric{1 - ratio(rate(traced), rate(plain)), "share"}
	out["trace.cpu_samples"] = metric{float64(cpuTotal), "count"}
	return out
}
