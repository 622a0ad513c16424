package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
)

// refAdmitShape is the per-member form of AdmitShape the one-pass version
// replaced: for every checked member it builds the sub-batch of streams
// touching that member, one fixed-bytes operation each, and solves formula
// (1) over it. It is kept here as the reference the property test holds
// AdmitShape to.
func refAdmitShape(a AdmissionParams, t sim.Time, budget int64, shape VolumeShape, streams []StreamParams) error {
	ndisks := shape.Disks
	if ndisks <= 0 {
		return &AdmissionError{Interval: t, Budget: budget,
			Reason: fmt.Sprintf("volume has %d disks", ndisks)}
	}
	if ndisks == 1 {
		return a.Admit(t, budget, streams)
	}
	live := ndisks - shape.Dead
	for d := 0; d < ndisks; d++ {
		if shape.Parity && shape.Dead > 0 && d >= live {
			break
		}
		var sub []StreamParams
		for _, s := range streams {
			if s.Cached || s.Multicast || s.Paused || !refTouchesDisk(s, d) {
				continue
			}
			sub = append(sub, StreamParams{Chunk: s.shapeLoad(t, shape)})
		}
		need, err := a.RequiredInterval(sub)
		if err != nil {
			return &AdmissionError{Interval: t, NeedBuffer: TotalBuffer(t, streams), Budget: budget,
				Reason: fmt.Sprintf("disk %d: %v", d, err)}
		}
		if need > t {
			return &AdmissionError{NeedInterval: need, Interval: t,
				NeedBuffer: TotalBuffer(t, streams), Budget: budget,
				Reason: fmt.Sprintf("interval time too short for stream set (disk %d)", d)}
		}
	}
	if buf := TotalBuffer(t, streams); buf > budget {
		return &AdmissionError{Interval: t, NeedBuffer: buf, Budget: budget,
			Reason: "buffer memory exhausted"}
	}
	return nil
}

// refTouchesDisk reports whether the stream loads member d.
func refTouchesDisk(s StreamParams, d int) bool {
	if s.Disks == nil {
		return true
	}
	for _, sd := range s.Disks {
		if sd == d {
			return true
		}
	}
	return false
}

// Property: on random stream sets over random volume shapes, AdmitShape
// agrees with the per-member reference exactly — admitted or not, and on
// rejection every AdmissionError field, the "disk N" text included. The
// sets mix RAID-0 and parity shapes (healthy and degraded), streams pinned
// to members (duplicates and out-of-range members among them), and cached,
// multicast and paused streams. The seed defaults to a fixed value; CI
// overrides it with ADMIT_PROP_SEED, and a failure replays with
//
//	ADMIT_PROP_SEED=<seed> go test ./internal/core -run TestAdmitShapeMatchesReference
func TestAdmitShapeMatchesReference(t *testing.T) {
	seed := int64(20261017)
	if env := os.Getenv("ADMIT_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("ADMIT_PROP_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("property seed %d (override with ADMIT_PROP_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))
	outcomes := map[string]int{}
	for i := 0; i < 3000; i++ {
		a, T, budget, shape, set := randomAdmission(rng)
		got := a.AdmitShape(T, budget, shape, set)
		want := refAdmitShape(a, T, budget, shape, set)
		if (got == nil) != (want == nil) {
			t.Fatalf("seed %d case %d (shape %+v, %d streams): AdmitShape = %v, reference = %v",
				seed, i, shape, len(set), got, want)
		}
		if want == nil {
			outcomes["admitted"]++
			continue
		}
		var g, w *AdmissionError
		if !errors.As(got, &g) || !errors.As(want, &w) {
			t.Fatalf("seed %d case %d: errors %T / %T, want *AdmissionError", seed, i, got, want)
		}
		if *g != *w {
			t.Fatalf("seed %d case %d (shape %+v, %d streams):\n AdmitShape %+v\n reference  %+v",
				seed, i, shape, len(set), *g, *w)
		}
		switch {
		case w.NeedInterval > 0:
			outcomes["interval"]++
		case w.Reason == "buffer memory exhausted":
			outcomes["buffer"]++
		default:
			outcomes["other"]++
		}
	}
	t.Logf("outcomes %v", outcomes)
	for _, k := range []string{"admitted", "interval", "buffer", "other"} {
		if outcomes[k] == 0 {
			t.Errorf("seed %d: no %q outcome in the sample; the generator lost coverage", seed, k)
		}
	}
}

// randomAdmission draws one admission problem: disk constants (now and then
// a zero transfer rate, which every non-empty member batch rejects), an
// interval, a budget, a volume shape and a stream set.
func randomAdmission(rng *rand.Rand) (AdmissionParams, sim.Time, int64, VolumeShape, []StreamParams) {
	a := testAdmission()
	if rng.Intn(40) == 0 {
		a.D = 0
	}
	T := sim.Time(250+rng.Intn(2750)) * time.Millisecond
	shape := VolumeShape{Disks: 1 + rng.Intn(20), StripeBytes: int64(8<<10) << rng.Intn(4)}
	if rng.Intn(50) == 0 {
		shape.Disks = -rng.Intn(2)
	}
	if shape.Disks >= 3 && rng.Intn(2) == 0 {
		shape.Parity = true
		shape.Dead = rng.Intn(2)
		if rng.Intn(50) == 0 {
			shape.Dead = shape.Disks + 1 // more dead than members: nothing to check
		}
	} else if shape.Disks >= 2 && rng.Intn(8) == 0 {
		shape.Dead = 1 // a dead RAID-0 member is still checked
	}
	n := rng.Intn(60)
	if rng.Intn(10) == 0 {
		n = 200 + rng.Intn(200)
	}
	set := make([]StreamParams, n)
	for i := range set {
		s := StreamParams{Rate: float64(16<<10 + rng.Intn(512<<10)), Chunk: int64(1 + rng.Intn(128<<10))}
		if shape.Disks > 0 && rng.Intn(2) == 0 {
			s = VolumeParams(T, s, shape)
		}
		if shape.Disks > 1 && rng.Intn(4) == 0 {
			pins := 1 + rng.Intn(4)
			for j := 0; j < pins; j++ {
				d := rng.Intn(shape.Disks + 2) // may be past the last member
				if rng.Intn(10) == 0 {
					d = -1 - rng.Intn(2)
				}
				s.Disks = append(s.Disks, d)
				if rng.Intn(4) == 0 {
					s.Disks = append(s.Disks, d) // duplicate pin
				}
			}
			if rng.Intn(20) == 0 {
				s.Disks = []int{} // pinned to no member at all
			}
		}
		switch rng.Intn(8) {
		case 0:
			s.Cached, s.CacheBytes = true, int64(rng.Intn(4<<20))
		case 1:
			s.Multicast, s.FanoutBytes = true, int64(rng.Intn(4<<20))
		case 2:
			s.Paused = true
		}
		set[i] = s
	}
	budget := int64(rng.Intn(16)+1) << 20
	if rng.Intn(3) == 0 {
		budget = 1 << 40
	}
	return a, T, budget, shape, set
}

// fleetAdmission is a 16-member volume under 300 open streams that fits:
// the set every open on a busy striped server re-checks. Every stream
// touches all members, as the server's own streams do, and a few ride the
// cache, fan-out or pause classes.
func fleetAdmission() (AdmissionParams, sim.Time, int64, VolumeShape, []StreamParams) {
	a := testAdmission()
	const T = 10 * time.Second
	shape := VolumeShape{Disks: 16, StripeBytes: 64 << 10}
	set := make([]StreamParams, 300)
	for i := range set {
		s := VolumeParams(T, StreamParams{Rate: 24 << 10, Chunk: 16 << 10}, shape)
		switch i % 10 {
		case 2:
			s.Cached, s.CacheBytes = true, 1<<20
		case 3:
			s.Multicast, s.FanoutBytes = true, 1<<20
		case 4:
			s.Paused = true
		}
		set[i] = s
	}
	return a, T, 1 << 40, shape, set
}

// TestAdmitShapeAllocs pins the one-pass test's cost: admitting 300 streams
// on 16 members allocates nothing.
func TestAdmitShapeAllocs(t *testing.T) {
	a, T, budget, shape, set := fleetAdmission()
	if err := a.AdmitShape(T, budget, shape, set); err != nil {
		t.Fatalf("fleet set rejected: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = a.AdmitShape(T, budget, shape, set)
	}); allocs != 0 {
		t.Errorf("AdmitShape, 16 members x 300 streams: %v allocs per call, want 0", allocs)
	}
}

// BenchmarkAdmitShape is the core layer's admission test: one op is one
// AdmitShape over the 16-member, 300-stream fleet set.
func BenchmarkAdmitShape(b *testing.B) {
	a, T, budget, shape, set := fleetAdmission()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.AdmitShape(T, budget, shape, set); err != nil {
			b.Fatal(err)
		}
	}
}
