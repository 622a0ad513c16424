package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// VCRSweepConfig drives the interactive-viewer evaluation: one seeded
// zapping/scrubbing population (internal/workload VCR viewers) replayed
// against two admission policies over the same RAM — the paper's
// suspend-on-refusal server (no ladder: a viewer the interval cannot carry
// at full rate is turned away), and the adaptive frame-rate ladder
// (refused opens warm up at a reduced delivered rate and recover). The
// arrival and operation script is byte-identical across the modes, so the
// admitted-viewer difference is the ladder's doing.
type VCRSweepConfig struct {
	Seed          int64
	Movies        int      // catalog size; default 12
	Clients       int      // viewer population; default 40
	Duration      sim.Time // measured playback per viewer; default 12 s
	ArrivalSpread sim.Time // arrivals uniform in [0, spread); default 8 s
	TotalRAM      int64    // stream-buffer budget; default 48 MB
	Alpha         float64  // Zipf skew; default 1.1
}

// VCRPoint is one admission policy's outcome under the shared script.
type VCRPoint struct {
	Mode         string  `json:"mode"` // suspend | ladder
	Admitted     int     `json:"admitted"`
	Rejected     int     `json:"rejected"`
	ReducedOpens int     `json:"reduced_opens"` // admitted below full delivered rate (warm-up)
	StepDowns    int     `json:"step_downs"`    // ladder moves down instead of suspending
	StepUps      int     `json:"step_ups"`      // recoveries back toward full rate
	Suspended    int     `json:"suspended"`     // streams the health ladder suspended
	Ops          int     `json:"ops"`           // VCR operations the population issued
	Refusals     int     `json:"refusals"`      // answered with a typed ErrVCRRefused
	Pauses       int     `json:"pauses"`
	Seeks        int     `json:"seeks"`
	RateChanges  int     `json:"rate_changes"`
	AvgFinalRate float64 `json:"avg_final_rate"` // mean delivered rate at close, admitted viewers
	Lost         int     `json:"lost"`           // frames lost across all admitted viewers
	DiskUtil     float64 `json:"disk_util"`
}

// VCRSweepResult is the two-row comparison, snapshotted to BENCH_vcr.json
// by crasbench.
type VCRSweepResult struct {
	Clients int        `json:"clients"`
	Alpha   float64    `json:"alpha"`
	RAMMB   int64      `json:"ram_mb"`
	Points  []VCRPoint `json:"points"`
}

// Point returns the row for the mode, or nil.
func (r *VCRSweepResult) Point(mode string) *VCRPoint {
	for i := range r.Points {
		if r.Points[i].Mode == mode {
			return &r.Points[i]
		}
	}
	return nil
}

// RunVCRSweep replays the identical seeded interactive script under both
// admission policies.
func RunVCRSweep(cfg VCRSweepConfig) *VCRSweepResult {
	if cfg.Movies == 0 {
		cfg.Movies = 12
	}
	if cfg.Clients == 0 {
		cfg.Clients = 40
	}
	if cfg.Duration == 0 {
		cfg.Duration = 12 * time.Second
	}
	if cfg.ArrivalSpread == 0 {
		cfg.ArrivalSpread = 8 * time.Second
	}
	if cfg.TotalRAM == 0 {
		cfg.TotalRAM = 48 << 20
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.1
	}

	res := &VCRSweepResult{Clients: cfg.Clients, Alpha: cfg.Alpha, RAMMB: cfg.TotalRAM >> 20}
	for _, mode := range []struct {
		name   string
		ladder []float64
	}{
		// Suspend-on-refusal: the paper's server. Admission is all or
		// nothing — a refused open is a rejected viewer.
		{"suspend", nil},
		// Adaptive ladder: a refused open warms up at a reduced delivered
		// rate, and degraded streams step down instead of suspending.
		{"ladder", []float64{1, 0.75, 0.5}},
	} {
		res.Points = append(res.Points, runVCRPoint(cfg, mode.name, mode.ladder))
	}
	return res
}

func runVCRPoint(cfg VCRSweepConfig, mode string, ladder []float64) VCRPoint {
	// MPEG2-rate titles: at 6 Mb/s the per-stream interval cost is mostly
	// transfer time, which is exactly the term delivered-rate thinning
	// scales — the rung walk buys real capacity, not just overhead shuffling.
	prof := media.MPEG2()
	movieDur := cfg.Duration + cfg.ArrivalSpread + 2*time.Second
	var movies []lab.Movie
	var infos []*media.StreamInfo
	var paths []string
	for i := 0; i < cfg.Movies; i++ {
		path := fmt.Sprintf("/m%02d", i)
		info := prof.Generate(path, movieDur)
		movies = append(movies, lab.Movie{Path: path, Info: info})
		infos = append(infos, info)
		paths = append(paths, path)
	}

	frames := int(cfg.Duration / (sim.Time(time.Second) / sim.Time(prof.FrameRate)))
	var outs []*workload.Outcome
	var busy0 sim.Time
	var start sim.Time
	m := lab.Build(lab.Setup{
		Seed: cfg.Seed,
		CRAS: core.Config{
			BufferBudget: cfg.TotalRAM,
			RateLadder:   ladder,
		},
		Movies: movies,
	}, func(m *lab.Machine) {
		start = m.Eng.Now()
		busy0 = m.Disk.Stats().BusyTime // setup I/O is not the sweep's traffic
		outs = workload.Launch(m.Kernel, workload.ServerOpener(m.CRAS, infos, paths),
			workload.NewScript(m.Eng.RNG("vcr-sweep"), len(paths), workload.ScriptConfig{
				Clients: cfg.Clients, Alpha: cfg.Alpha,
				WaveSpread: cfg.ArrivalSpread, Interactive: true,
			}), workload.PlayerConfig{MaxFrames: frames})
	})
	horizon := 2*cfg.Duration + cfg.ArrivalSpread + 30*time.Second
	for ran := sim.Time(0); ran < horizon; ran += time.Second {
		m.Run(time.Second)
		done := true
		for _, o := range outs {
			if !o.Stats.Done {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	if err := m.Err(); err != nil {
		panic(err)
	}

	pt := VCRPoint{Mode: mode}
	var rateSum float64
	for _, o := range outs {
		mustBeFresh(&o.Stats)
		if !o.Admitted {
			pt.Rejected++
			continue
		}
		pt.Admitted++
		if o.ReducedOpen {
			pt.ReducedOpens++
		}
		pt.Ops += o.Stats.Fired
		pt.Refusals += o.Stats.Refusals
		pt.Lost += o.Stats.Lost
		rateSum += o.Stats.FinalRate
	}
	if pt.Admitted > 0 {
		pt.AvgFinalRate = rateSum / float64(pt.Admitted)
	}
	st := m.CRAS.Stats()
	pt.StepDowns = st.RateStepDowns
	pt.StepUps = st.RateStepUps
	pt.Suspended = st.StreamsSuspended
	pt.Pauses = st.Pauses
	pt.Seeks = st.Seeks
	pt.RateChanges = st.RateChanges
	if elapsed := m.Eng.Now() - start; elapsed > 0 {
		pt.DiskUtil = float64(m.Disk.Stats().BusyTime-busy0) / float64(elapsed)
	}
	return pt
}

// Table renders the sweep.
func (r *VCRSweepResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("VCR admission: suspend-on-refusal vs frame-rate ladder, %d viewers, Zipf %.1f, %d MB RAM",
			r.Clients, r.Alpha, r.RAMMB),
		"mode", "admitted", "rejected", "reduced opens", "step-downs", "step-ups",
		"suspended", "VCR ops", "refusals", "pauses", "seeks", "rate changes",
		"avg rate", "lost", "disk util")
	for _, pt := range r.Points {
		t.AddRow(
			pt.Mode, pt.Admitted, pt.Rejected, pt.ReducedOpens, pt.StepDowns, pt.StepUps,
			pt.Suspended, pt.Ops, pt.Refusals, pt.Pauses, pt.Seeks, pt.RateChanges,
			fmt.Sprintf("%.2f", pt.AvgFinalRate),
			pt.Lost,
			fmt.Sprintf("%.0f%%", 100*pt.DiskUtil),
		)
	}
	return t
}
