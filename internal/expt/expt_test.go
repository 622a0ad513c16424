package expt

import (
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/workload"
)

// Shape tests: small-scale versions of each figure that assert the
// qualitative results the paper reports (who wins, by roughly what factor,
// where behaviour changes), not absolute numbers.

func TestFig6Shape(t *testing.T) {
	res := RunFig6(Fig6Config{
		Seed:         1,
		StreamCounts: []int{1, 5, 9, 15, 20},
		Duration:     12 * time.Second,
	})
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, p := range res.Points {
		// CRAS is unaffected by background load (its reads preempt the
		// normal queue): the two CRAS curves stay within 15%.
		if p.CRASLoad < 0.85*p.CRASNoLoad {
			t.Errorf("N=%d: CRAS load %.0f << no-load %.0f", p.Streams, p.CRASLoad, p.CRASNoLoad)
		}
		// CRAS meets the offered load at least through mid counts.
		offered := float64(p.Streams) * 187500
		if p.Streams <= 15 && p.CRASNoLoad < 0.9*offered {
			t.Errorf("N=%d: CRAS delivered %.0f of offered %.0f", p.Streams, p.CRASNoLoad, offered)
		}
		// UFS under load collapses well below CRAS under load.
		if p.Streams >= 5 && p.UFSLoad > p.CRASLoad/2 {
			t.Errorf("N=%d: UFS under load %.0f not far below CRAS %.0f", p.Streams, p.UFSLoad, p.CRASLoad)
		}
		_ = i
	}
	// CRAS scales beyond UFS: at 15 streams UFS no-load has fallen behind.
	last := res.Points[3] // N=15
	if last.UFSNoLoad > 0.8*last.CRASNoLoad {
		t.Errorf("N=15: UFS %.0f should trail CRAS %.0f", last.UFSNoLoad, last.CRASNoLoad)
	}
	if f := res.PeakCRASFraction(); f < 0.35 || f > 0.95 {
		t.Errorf("peak CRAS fraction of disk = %.2f, expect mid-range", f)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFig6UFSCollapsesUnderLoadEarly(t *testing.T) {
	res := RunFig6(Fig6Config{
		Seed:         1,
		StreamCounts: []int{1, 2},
		Duration:     10 * time.Second,
	})
	// The paper: UFS "cannot support even one stream when other disk I/O
	// traffic is present" — on-time delivery under load collapses at the
	// smallest counts.
	if n := res.UFSCollapseUnderLoad(); n > 2 {
		t.Errorf("UFS under load survived to %d streams", n)
	}
}

// Ablation: the split real-time/normal driver queue is what isolates CRAS
// from queued non-real-time I/O. Against a backup scanner keeping the
// normal queue deep, removing the split collapses on-time delivery.
func TestAblationRTQueueShape(t *testing.T) {
	run := func(noRT bool) float64 {
		r := RunPlayback(PlaybackConfig{
			Seed: 1, Streams: 10, Profile: media.MPEG1(),
			Duration: 10 * time.Second, UseCRAS: true, Scanner: true, Force: true,
			NoRTQueue: noRT,
		})
		return r.OnTimeThroughput()
	}
	with := run(false)
	without := run(true)
	if with < 1.8e6 {
		t.Errorf("with RT queue: %.2f MB/s, scanner should not hurt CRAS", with/1e6)
	}
	if without > 0.65*with {
		t.Errorf("without RT queue: %.2f MB/s vs %.2f with; queue split not load-bearing", without/1e6, with/1e6)
	}
}

func TestFig7Shape(t *testing.T) {
	res := RunFig7(Fig7Config{Seed: 1, Duration: 12 * time.Second})
	cras, ufsS := res.Summary()
	if cras.N == 0 || ufsS.N == 0 {
		t.Fatal("missing samples")
	}
	// UFS delay jitter dwarfs CRAS's at the same (single-stream) load.
	if ufsS.Max < 3*cras.Max {
		t.Errorf("UFS max %.4fs vs CRAS max %.4fs: expected a wide gap", ufsS.Max, cras.Max)
	}
	if ufsS.Std < 2*cras.Std {
		t.Errorf("UFS jitter std %.4fs vs CRAS %.4fs", ufsS.Std, cras.Std)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := Fig8Config()
	cfg.Seed = 1
	cfg.StreamCounts = []int{1, 4, 10}
	cfg.Duration = 10 * time.Second
	res := RunAccuracy(cfg)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		// The estimate is a bound: the ratio never exceeds 100% without
		// load, and stays modest at low rates (very pessimistic).
		if p.NoLoadMax > 100 {
			t.Errorf("N=%d: actual exceeded calculated (%.0f%%)", p.Streams, p.NoLoadMax)
		}
		if p.NoLoadAvg <= 0 {
			t.Errorf("N=%d: no samples", p.Streams)
		}
	}
	// Accuracy improves (ratio rises) with more streams: transfer time
	// starts to dominate the pessimistic overhead terms.
	if res.Points[2].NoLoadAvg <= res.Points[0].NoLoadAvg {
		t.Errorf("accuracy did not improve with stream count: %v", res.Points)
	}
	// Low-rate streams at N=1 are very pessimistic (paper: far below 50%).
	if res.Points[0].NoLoadAvg > 50 {
		t.Errorf("N=1 accuracy %.0f%%, expected heavy pessimism", res.Points[0].NoLoadAvg)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := Fig9Config()
	cfg.Seed = 1
	cfg.StreamCounts = []int{1, 5}
	cfg.Duration = 10 * time.Second
	res := RunAccuracy(cfg)
	fig8 := RunAccuracy(AccuracyConfig{
		Seed: 1, Profile: media.MPEG1(), StreamCounts: []int{1},
		Duration: 10 * time.Second, Label: "fig8-ref",
	})
	// Higher data rates are less pessimistic than low rates at equal N.
	if res.Points[0].NoLoadAvg <= fig8.Points[0].NoLoadAvg {
		t.Errorf("6 Mb/s accuracy %.0f%% should exceed 1.5 Mb/s %.0f%%",
			res.Points[0].NoLoadAvg, fig8.Points[0].NoLoadAvg)
	}
	// With load, the actual I/O time grows (background request in the
	// way), moving the ratio toward the estimate.
	if res.Points[1].LoadAvg <= res.Points[1].NoLoadAvg {
		t.Errorf("load should raise the ratio: load %.0f%% vs no-load %.0f%%",
			res.Points[1].LoadAvg, res.Points[1].NoLoadAvg)
	}
	if res.Points[1].LoadMax > 100.0 {
		t.Errorf("even under load the bound should hold, got %.0f%%", res.Points[1].LoadMax)
	}
}

func TestFig10Shape(t *testing.T) {
	res := RunFig10(Fig10Config{Seed: 1, Duration: 10 * time.Second})
	fp, rr := res.FixedPriority.Summary(), res.RoundRobin.Summary()
	if fp.N == 0 {
		t.Fatal("no fixed-priority samples")
	}
	// Fixed priority keeps the stream essentially unperturbed by CPU load;
	// round robin produces delays orders of magnitude larger (and may lose
	// frames outright).
	if fp.Max > 0.05 {
		t.Errorf("fixed-priority max delay %.3fs, want tiny", fp.Max)
	}
	if rr.N > 0 && rr.Max < 5*fp.Max {
		t.Errorf("round-robin max %.4fs vs fixed-priority %.4fs: expected a wide gap", rr.Max, fp.Max)
	}
	if rr.N == 0 && res.RRLost == 0 {
		t.Error("round robin neither delivered nor lost frames")
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFig12Shape(t *testing.T) {
	res := RunFig12(1)
	if len(res.Points) < 10 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Monotonic measured curve; approximation within 3 ms everywhere.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Measured < res.Points[i-1].Measured {
			t.Errorf("seek curve not monotonic at %d", res.Points[i].Distance)
		}
	}
	for _, p := range res.Points {
		diff := p.Measured - p.Approx
		if diff < 0 {
			diff = -diff
		}
		if diff > 3*time.Millisecond {
			t.Errorf("fit off by %v at distance %d", diff, p.Distance)
		}
	}
	if res.TseekMin < 2*time.Millisecond || res.TseekMin > 6*time.Millisecond {
		t.Errorf("Tseek_min = %v, paper ~4ms", res.TseekMin)
	}
	if res.TseekMax < 15*time.Millisecond || res.TseekMax > 19*time.Millisecond {
		t.Errorf("Tseek_max = %v, paper ~17ms", res.TseekMax)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestTable4Shape(t *testing.T) {
	res := RunTable4(1)
	if res.D < 6.3e6 || res.D > 6.7e6 {
		t.Errorf("D = %.2f MB/s, paper 6.5", res.D/1e6)
	}
	if res.MeasuredD < 6.0e6 || res.MeasuredD > 7.0e6 {
		t.Errorf("timed D = %.2f MB/s", res.MeasuredD/1e6)
	}
	if res.Trot != 8330*time.Microsecond || res.Tcmd != 2*time.Millisecond {
		t.Errorf("Trot/Tcmd = %v/%v", res.Trot, res.Tcmd)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestDelaySweepShape(t *testing.T) {
	res := RunDelaySweep(1, 22, 15*time.Second,
		[]time.Duration{time.Second, 3 * time.Second})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// A longer initial delay never hurts and should help at this load.
	if res.Points[1].Throughput < res.Points[0].Throughput {
		t.Errorf("3s delay %.0f below 1s delay %.0f", res.Points[1].Throughput, res.Points[0].Throughput)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestIntervalSweepShape(t *testing.T) {
	res := RunIntervalSweep(1,
		[]time.Duration{250 * time.Millisecond, time.Second},
		6*time.Second)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Longer intervals admit more streams at more memory and delay.
	a, b := res.Points[0], res.Points[1]
	if b.AdmittedMax <= a.AdmittedMax {
		t.Errorf("capacity did not grow with T: %d -> %d", a.AdmittedMax, b.AdmittedMax)
	}
	if b.BufferNeeded <= a.BufferNeeded {
		t.Errorf("memory did not grow with T: %d -> %d", a.BufferNeeded, b.BufferNeeded)
	}
	if a.MinDelay != 500*time.Millisecond || b.MinDelay != 2*time.Second {
		t.Errorf("min delays = %v, %v", a.MinDelay, b.MinDelay)
	}
	// At the short interval, the admitted set plays cleanly.
	if a.VerifiedLost > 0 {
		t.Errorf("T=250ms capacity run lost %d frames", a.VerifiedLost)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestVBRShape(t *testing.T) {
	res := RunVBR(1, 10*time.Second)
	if res.WorstRate <= 1.1*res.AvgRate {
		t.Errorf("VBR worst %.0f should clearly exceed avg %.0f", res.WorstRate, res.AvgRate)
	}
	if res.Capacity == 0 || res.PeakUsed == 0 {
		t.Fatalf("missing buffer measurements: %+v", res)
	}
	// The Section 3.2 point: the worst-case-sized buffer is underused.
	if res.Utilization > 0.95 {
		t.Errorf("utilization %.2f, expected waste", res.Utilization)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFragmentationShape(t *testing.T) {
	res := RunFragmentation(1, 6, 10*time.Second)
	if res.FragAvgExtent >= res.TunedAvgExtent/4 {
		t.Errorf("fragmented avg extent %d vs tuned %d: expected much smaller",
			res.FragAvgExtent, res.TunedAvgExtent)
	}
	if res.FragReads <= res.TunedReads {
		t.Error("fragmented layout should need more reads")
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestRecordShape(t *testing.T) {
	res := RunRecord(1, 3, 10*time.Second)
	if res.WrittenBytes < res.PlannedBytes*9/10 {
		t.Errorf("wrote %d of %d planned bytes", res.WrittenBytes, res.PlannedBytes)
	}
	if res.IODeadlineMiss != 0 {
		t.Errorf("%d I/O deadline misses while recording", res.IODeadlineMiss)
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestOverloadSweepShape(t *testing.T) {
	res := RunOverloadSweep(OverloadSweepConfig{Seed: 1, Duration: 8 * time.Second, Rates: []float64{4, 64}})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	calm, storm := res.Points[0], res.Points[1]
	if storm.ShedRate() <= calm.ShedRate() {
		t.Errorf("shed rate did not rise with arrival rate: %.2f -> %.2f",
			calm.ShedRate(), storm.ShedRate())
	}
	if storm.RequestsShed == 0 {
		t.Error("no requests shed at 64 opens/s against budget 8")
	}
	// The whole point: the admitted viewers never pay for the flood.
	for _, pt := range res.Points {
		if pt.ViewerLost != 0 {
			t.Errorf("viewers lost %d frames at %v opens/s", pt.ViewerLost, pt.Rate)
		}
	}
	if res.Table().String() == "" {
		t.Error("empty table")
	}
}

// A sweep fails outright when a player was handed an expired chunk.
func TestMustBeFreshPanicsOnExpired(t *testing.T) {
	mustBeFresh(&workload.PlayerStats{Obtained: 5}) // fresh: no panic
	defer func() {
		if recover() == nil {
			t.Fatal("mustBeFresh accepted a player with expired chunks")
		}
	}()
	mustBeFresh(&workload.PlayerStats{}, &workload.PlayerStats{Obtained: 5, Expired: 1})
}
