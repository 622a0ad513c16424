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

// CacheSweepConfig drives the interval-cache evaluation: a Zipf viewer
// population replayed across cache budgets, the total RAM held constant so
// every point answers "what does turning buffer memory into cache memory
// buy?". The skew axis is what the cache's value depends on — at alpha 0
// viewers spread across the catalog and overlaps are luck, at 1.1 most of
// the population piles onto a few titles and overlaps are the common case.
type CacheSweepConfig struct {
	Seed          int64
	Movies        int      // catalog size; default 12
	Clients       int      // viewer population; default 30
	Duration      sim.Time // measured playback per viewer; default 20 s
	ArrivalSpread sim.Time // arrivals uniform over this window; default 5 s
	TotalRAM      int64    // buffer + cache memory; default 48 MB
	Alphas        []float64
	Budgets       []int64 // cache budgets carved out of TotalRAM
}

// CachePoint is one (alpha, budget) cell.
type CachePoint struct {
	Alpha       float64
	Budget      int64
	Admitted    int   // viewers past admission
	CacheBacked int   // of those, opened as cache followers
	Rejected    int   // viewers refused
	CacheHits   int64 // chunks stamped from pins instead of disk
	Fallbacks   int   // followers converted back to disk mid-run
	BytesRead   int64 // CRAS disk traffic
	DiskUtil    float64
	Lost        int // frames lost across all admitted viewers
}

// CacheSweepResult is the sweep's cell set.
type CacheSweepResult struct {
	Points []CachePoint
}

// Point returns the cell for (alpha, budget), or nil.
func (r *CacheSweepResult) Point(alpha float64, budget int64) *CachePoint {
	for i := range r.Points {
		if r.Points[i].Alpha == alpha && r.Points[i].Budget == budget {
			return &r.Points[i]
		}
	}
	return nil
}

// RunCacheSweep replays the identical seeded arrival script at every
// (alpha, budget) cell. Within one alpha the scripts are byte-identical —
// same movies, same arrival times — so admitted-stream differences between
// budgets are the cache's doing, not sampling noise.
func RunCacheSweep(cfg CacheSweepConfig) *CacheSweepResult {
	if cfg.Movies == 0 {
		cfg.Movies = 12
	}
	if cfg.Clients == 0 {
		cfg.Clients = 30
	}
	if cfg.Duration == 0 {
		cfg.Duration = 20 * time.Second
	}
	if cfg.ArrivalSpread == 0 {
		cfg.ArrivalSpread = 5 * time.Second
	}
	if cfg.TotalRAM == 0 {
		cfg.TotalRAM = 48 << 20
	}
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = []float64{0, 0.7, 1.1}
	}
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = []int64{0, 8 << 20, 32 << 20}
	}

	res := &CacheSweepResult{}
	for _, alpha := range cfg.Alphas {
		for _, budget := range cfg.Budgets {
			res.Points = append(res.Points, runCachePoint(cfg, alpha, budget))
		}
	}
	return res
}

func runCachePoint(cfg CacheSweepConfig, alpha float64, budget int64) CachePoint {
	prof := media.MPEG1()
	movieDur := cfg.Duration + cfg.ArrivalSpread + 2*time.Second
	var movies []lab.Movie
	var infos []*media.StreamInfo
	var paths []string
	for i := 0; i < cfg.Movies; i++ {
		path := fmt.Sprintf("/z%02d", i)
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
			BufferBudget: cfg.TotalRAM - budget,
			CacheBudget:  budget,
		},
		Movies: movies,
	}, func(m *lab.Machine) {
		start = m.Eng.Now()
		busy0 = m.Disk.Stats().BusyTime // setup I/O is not the sweep's traffic
		outs = workload.Launch(m.Kernel, workload.ServerOpener(m.CRAS, infos, paths),
			workload.NewScript(m.Eng.RNG("cache-sweep"), len(paths), workload.ScriptConfig{
				Clients: cfg.Clients, Alpha: alpha, WaveSpread: cfg.ArrivalSpread,
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

	pt := CachePoint{Alpha: alpha, Budget: budget}
	for _, o := range outs {
		mustBeFresh(&o.Stats)
		if !o.Admitted {
			pt.Rejected++
			continue
		}
		pt.Admitted++
		if o.CacheBacked {
			pt.CacheBacked++
		}
		pt.Lost += o.Stats.Lost
	}
	st := m.CRAS.Stats()
	pt.CacheHits = st.CacheHits
	pt.Fallbacks = st.CacheFallbacks
	pt.BytesRead = st.BytesRead
	if elapsed := m.Eng.Now() - start; elapsed > 0 {
		pt.DiskUtil = float64(m.Disk.Stats().BusyTime-busy0) / float64(elapsed)
	}
	return pt
}

// Table renders the sweep.
func (r *CacheSweepResult) Table() *metrics.Table {
	t := metrics.NewTable("Interval cache: admitted streams and disk load vs cache budget (total RAM fixed)",
		"alpha", "cache MB", "admitted", "cache-backed", "rejected", "hits", "fallbacks", "disk MB", "disk util", "lost")
	for _, pt := range r.Points {
		t.AddRow(
			fmt.Sprintf("%.1f", pt.Alpha),
			fmt.Sprintf("%d", pt.Budget>>20),
			pt.Admitted, pt.CacheBacked, pt.Rejected,
			pt.CacheHits, pt.Fallbacks,
			fmt.Sprintf("%.1f", float64(pt.BytesRead)/(1<<20)),
			fmt.Sprintf("%.0f%%", 100*pt.DiskUtil),
			pt.Lost,
		)
	}
	return t
}
