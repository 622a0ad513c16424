package disk

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

// faultBed builds a small disk with a fault model installed.
func faultBed(seed int64, cfg FaultConfig) (*sim.Engine, *Disk, *FaultModel) {
	e := sim.NewEngine(seed)
	g, p := ST32550N()
	g.Cylinders = 200
	d := New(e, "sd0", g, p)
	m := NewFaultModel(e.RNG("faults:sd0"), cfg)
	d.SetFaultModel(m)
	return e, d, m
}

// outcome records one request's completion for comparison across runs.
type outcome struct {
	lba     int64
	err     string
	started sim.Time
	done    sim.Time
}

// runFaultSequence submits a fixed read sequence under a fault model. With
// buffered set every read carries a caller buffer; otherwise every read is
// timing-only. Done must see the caller's buffer (nil on failure) or nil.
func runFaultSequence(t *testing.T, seed int64, cfg FaultConfig, requests int, buffered bool) ([]outcome, FaultStats, Stats) {
	e, d, m := faultBed(seed, cfg)
	var got []outcome
	for i := 0; i < requests; i++ {
		r := &Request{LBA: int64(i * 1000), Count: 64, RealTime: true}
		if buffered {
			r.Data = make([]byte, r.Count*d.Geometry().SectorSize)
		}
		r.Done = func(r *Request, data []byte) {
			errs := ""
			if r.Err != nil {
				errs = r.Err.Error()
			}
			if want := r.Data; r.Err != nil || want == nil {
				if data != nil {
					t.Errorf("lba %d: Done got %d bytes, want nil (err %v, buffered %v)", r.LBA, len(data), r.Err, buffered)
				}
			} else if len(data) != len(want) || &data[0] != &want[0] {
				t.Errorf("lba %d: Done did not get the caller's buffer", r.LBA)
			}
			got = append(got, outcome{lba: r.LBA, err: errs, started: r.Started, done: r.Completed})
		}
		d.Submit(r)
	}
	e.RunUntil(time.Minute)
	return got, m.Stats(), d.Stats()
}

func TestFaultModelDeterministicReplay(t *testing.T) {
	cfg := FaultConfig{
		TransientProb: 0.3,
		LatencyProb:   0.4, LatencyMin: time.Millisecond, LatencyMax: 20 * time.Millisecond,
		BadRegions: []BadRegion{{LBA: 5000, Sectors: 500}},
	}
	a, sa, da := runFaultSequence(t, 42, cfg, 40, false)
	b, sb, db := runFaultSequence(t, 42, cfg, 40, false)
	if sa != sb || da != db {
		t.Fatalf("stats diverged across identical runs: %+v vs %+v, %+v vs %+v", sa, sb, da, db)
	}
	if len(a) != len(b) {
		t.Fatalf("completion counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A timing-only read costs exactly what a buffered read of the same
	// range costs, and draws the same faults.
	bu, sbu, dbu := runFaultSequence(t, 42, cfg, 40, true)
	if sbu != sa || dbu != da {
		t.Fatalf("buffered reads diverged from timing-only reads:\nfaults %+v vs %+v\ndisk %+v vs %+v", sbu, sa, dbu, da)
	}
	for i := range a {
		if bu[i] != a[i] {
			t.Fatalf("outcome %d: buffered %+v, timing-only %+v", i, bu[i], a[i])
		}
	}
	// A different seed must draw a different fault pattern (with these
	// probabilities 40 requests almost surely differ somewhere).
	c, sc, _ := runFaultSequence(t, 43, cfg, 40, false)
	same := sa == sc && len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestFaultModelBadRegionPersistent(t *testing.T) {
	e, d, m := faultBed(1, FaultConfig{BadRegions: []BadRegion{{LBA: 1000, Sectors: 100}}})
	fails, oks := 0, 0
	submit := func(lba int64) {
		d.Submit(&Request{LBA: lba, Count: 64, RealTime: true, Done: func(r *Request, _ []byte) {
			if errors.Is(r.Err, ErrBadRegion) {
				fails++
			} else if r.Err == nil {
				oks++
			}
		}})
	}
	// Three attempts on the region (a retry loop) and three off it.
	for i := 0; i < 3; i++ {
		submit(1050)
		submit(5000)
	}
	e.RunUntil(time.Minute)
	if fails != 3 || oks != 3 {
		t.Fatalf("bad region: %d fails, %d oks, want 3 and 3 (stats %+v)", fails, oks, m.Stats())
	}
	// Boundary: a request ending exactly at the region start is clean.
	submit(1000 - 64)
	e.RunUntil(2 * time.Minute)
	if oks != 4 {
		t.Fatalf("request adjacent to bad region failed")
	}
}

func TestFaultModelStallWedgesUntilCancel(t *testing.T) {
	e, d, _ := faultBed(1, FaultConfig{StallProb: 1, MaxStalls: 1})
	var stalledReq *Request
	completions := 0
	first := &Request{LBA: 0, Count: 64, RealTime: true, Done: func(r *Request, _ []byte) {
		completions++
	}}
	stalledReq = first
	d.Submit(first)
	second := &Request{LBA: 2000, Count: 64, RealTime: true, Done: func(r *Request, _ []byte) {
		completions++
		if r.Err != nil {
			t.Errorf("queued request behind the stall failed: %v", r.Err)
		}
	}}
	d.Submit(second)

	e.RunUntil(10 * time.Second)
	if completions != 0 {
		t.Fatalf("stalled disk delivered %d completions", completions)
	}
	if !d.Busy() || !d.Stalled() {
		t.Fatal("disk not wedged on the stalled request")
	}
	// Canceling a queued (not stalled) request is refused.
	e.Spawn("cancel", func(p *sim.Proc) {
		if d.Cancel(second) {
			t.Error("Cancel succeeded on a queued request")
		}
		if !d.Cancel(stalledReq) {
			t.Error("Cancel refused the stalled request")
		}
		if d.Cancel(stalledReq) {
			t.Error("double Cancel succeeded")
		}
	})
	e.RunUntil(20 * time.Second)
	if completions != 2 {
		t.Fatalf("after cancel: %d completions, want 2 (abort + queued request)", completions)
	}
	if !errors.Is(first.Err, ErrAborted) {
		t.Fatalf("canceled request error = %v, want ErrAborted", first.Err)
	}
	if d.Stats().Canceled != 1 {
		t.Fatalf("stats.Canceled = %d, want 1", d.Stats().Canceled)
	}
}

func TestFaultModelLatencyInflation(t *testing.T) {
	serve := func(cfg FaultConfig) sim.Time {
		e, d, _ := faultBed(1, cfg)
		var done sim.Time
		d.Submit(&Request{LBA: 0, Count: 64, RealTime: true, Done: func(r *Request, _ []byte) {
			done = r.Completed
		}})
		e.RunUntil(time.Minute)
		return done
	}
	base := serve(FaultConfig{})
	slow := serve(FaultConfig{LatencyProb: 1, LatencyMin: 50 * time.Millisecond, LatencyMax: 60 * time.Millisecond})
	if slow < base+50*time.Millisecond {
		t.Fatalf("latency fault did not inflate service: base %v, slow %v", base, slow)
	}
}

func TestFaultModelRTOnlySparesNormalQueue(t *testing.T) {
	e, d, m := faultBed(1, FaultConfig{TransientProb: 1, RTOnly: true})
	var rtErr, normErr error
	d.Submit(&Request{LBA: 0, Count: 64, RealTime: true, Done: func(r *Request, _ []byte) { rtErr = r.Err }})
	d.Submit(&Request{LBA: 4000, Count: 64, Done: func(r *Request, _ []byte) { normErr = r.Err }})
	e.RunUntil(time.Minute)
	if !errors.Is(rtErr, ErrMedium) {
		t.Fatalf("real-time request error = %v, want ErrMedium", rtErr)
	}
	if normErr != nil {
		t.Fatalf("normal-queue request was faulted despite RTOnly: %v", normErr)
	}
	if s := m.Stats(); s.Transient != 1 {
		t.Fatalf("stats.Transient = %d, want 1", s.Transient)
	}
}

// The escape hatch composes with the model: the injector still sees every
// completion and may fail requests the model left clean.
func TestFaultInjectorEscapeHatchComposes(t *testing.T) {
	e, d, _ := faultBed(1, FaultConfig{})
	errBoom := errors.New("boom")
	d.SetFaultInjector(func(r *Request) error {
		if r.LBA == 3000 {
			return errBoom
		}
		return nil
	})
	var got [2]error
	d.Submit(&Request{LBA: 3000, Count: 8, RealTime: true, Done: func(r *Request, _ []byte) { got[0] = r.Err }})
	d.Submit(&Request{LBA: 6000, Count: 8, RealTime: true, Done: func(r *Request, _ []byte) { got[1] = r.Err }})
	e.RunUntil(time.Minute)
	if !errors.Is(got[0], errBoom) || got[1] != nil {
		t.Fatalf("injector escape hatch broken: %v, %v", got[0], got[1])
	}
}
