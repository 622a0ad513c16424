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

// MulticastSweepConfig drives the batching + prefix evaluation: one
// premiere-style wave population (internal/workload batched arrivals)
// replayed against three ways of spending the same RAM — all of it on
// stream buffers, most of it on the interval cache (PR 3's best split),
// and a three-way split that funds the multicast fan-out and pinned
// prefixes. The arrival script is byte-identical across the modes, so the
// admitted-viewer differences are the memory hierarchy's doing.
type MulticastSweepConfig struct {
	Seed       int64
	Movies     int      // catalog size; default 12
	Clients    int      // viewer population; default 60
	Duration   sim.Time // measured playback per viewer; default 18 s
	Waves      int      // arrival bursts; default 3
	WaveGap    sim.Time // between wave starts; default 4 s
	WaveSpread sim.Time // arrivals inside a wave; default 1.5 s
	TotalRAM   int64    // split across buffer/cache/prefix; default 48 MB
	Alpha      float64  // Zipf skew; default 1.1
}

// MulticastPoint is one memory-split's outcome under the shared script.
type MulticastPoint struct {
	Mode         string  `json:"mode"` // disk | cache | multicast
	BufferMB     int64   `json:"buffer_mb"`
	CacheMB      int64   `json:"cache_mb"`
	PrefixMB     int64   `json:"prefix_mb"`
	Admitted     int     `json:"admitted"`
	Rejected     int     `json:"rejected"`
	CacheBacked  int     `json:"cache_backed"`  // opened as interval-cache followers
	Members      int     `json:"members"`       // opened as fan-out members
	PrefixStarts int     `json:"prefix_starts"` // members whose head came from pins
	Groups       int     `json:"groups"`        // multicast groups formed
	FanoutChunks int64   `json:"fanout_chunks"` // chunks copied feed -> members
	Fallbacks    int     `json:"fallbacks"`     // members converted back to disk
	BytesReadMB  int64   `json:"bytes_read_mb"` // CRAS disk traffic
	DiskUtil     float64 `json:"disk_util"`
	Lost         int     `json:"lost"` // frames lost across all admitted viewers
}

// MulticastSweepResult is the three-row comparison, snapshotted to
// BENCH_multicast.json by crasbench.
type MulticastSweepResult struct {
	Clients int              `json:"clients"`
	Alpha   float64          `json:"alpha"`
	RAMMB   int64            `json:"ram_mb"`
	Points  []MulticastPoint `json:"points"`
}

// Point returns the row for the mode, or nil.
func (r *MulticastSweepResult) Point(mode string) *MulticastPoint {
	for i := range r.Points {
		if r.Points[i].Mode == mode {
			return &r.Points[i]
		}
	}
	return nil
}

// RunMulticastSweep replays the identical seeded wave script at every
// memory split.
func RunMulticastSweep(cfg MulticastSweepConfig) *MulticastSweepResult {
	if cfg.Movies == 0 {
		cfg.Movies = 12
	}
	if cfg.Clients == 0 {
		cfg.Clients = 60
	}
	if cfg.Duration == 0 {
		cfg.Duration = 18 * time.Second
	}
	if cfg.Waves == 0 {
		cfg.Waves = 3
	}
	if cfg.WaveGap == 0 {
		cfg.WaveGap = 4 * time.Second
	}
	if cfg.WaveSpread == 0 {
		cfg.WaveSpread = 1500 * time.Millisecond
	}
	if cfg.TotalRAM == 0 {
		cfg.TotalRAM = 48 << 20
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.1
	}

	res := &MulticastSweepResult{Clients: cfg.Clients, Alpha: cfg.Alpha, RAMMB: cfg.TotalRAM >> 20}
	ram := cfg.TotalRAM
	for _, split := range []struct {
		mode                  string
		buffer, cache, prefix int64
	}{
		// Disk-only: the paper's server, every byte a stream buffer.
		{"disk", ram, 0, 0},
		// Cache-only: PR 3's best interval-cache split of the same RAM.
		{"cache", ram - ram*2/3, ram * 2 / 3, 0},
		// Multicast: fund fan-out buffers and pinned prefixes too.
		{"multicast", ram / 4, ram / 4, ram / 2},
	} {
		res.Points = append(res.Points, runMulticastPoint(cfg, split.mode, split.buffer, split.cache, split.prefix))
	}
	return res
}

func runMulticastPoint(cfg MulticastSweepConfig, mode string, buffer, cache, prefix int64) MulticastPoint {
	prof := media.MPEG1()
	span := sim.Time(cfg.Waves-1)*cfg.WaveGap + cfg.WaveSpread
	movieDur := cfg.Duration + span + 2*time.Second
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
			BufferBudget: buffer,
			CacheBudget:  cache,
			PrefixBudget: prefix,
			BatchWindow:  2 * time.Second,
		},
		Movies: movies,
	}, func(m *lab.Machine) {
		start = m.Eng.Now()
		busy0 = m.Disk.Stats().BusyTime // setup I/O is not the sweep's traffic
		outs = workload.Launch(m.Kernel, workload.ServerOpener(m.CRAS, infos, paths),
			workload.NewScript(m.Eng.RNG("multicast-sweep"), len(paths), workload.ScriptConfig{
				Clients: cfg.Clients, Alpha: cfg.Alpha,
				Waves: cfg.Waves, WaveGap: cfg.WaveGap, WaveSpread: cfg.WaveSpread,
			}), workload.PlayerConfig{MaxFrames: frames})
	})
	horizon := 2*cfg.Duration + span + 30*time.Second
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

	pt := MulticastPoint{Mode: mode, BufferMB: buffer >> 20, CacheMB: cache >> 20, PrefixMB: prefix >> 20}
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
		if o.Multicast {
			pt.Members++
		}
		if o.PrefixStart {
			pt.PrefixStarts++
		}
		pt.Lost += o.Stats.Lost
	}
	st := m.CRAS.Stats()
	pt.Groups = st.MulticastGroups
	pt.FanoutChunks = st.MulticastFanout
	pt.Fallbacks = st.MulticastFallbacks
	pt.BytesReadMB = st.BytesRead >> 20
	if elapsed := m.Eng.Now() - start; elapsed > 0 {
		pt.DiskUtil = float64(m.Disk.Stats().BusyTime-busy0) / float64(elapsed)
	}
	return pt
}

// Table renders the sweep.
func (r *MulticastSweepResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Multicast batching + pinned prefix: %d viewers, Zipf %.1f, %d MB RAM",
			r.Clients, r.Alpha, r.RAMMB),
		"mode", "buf/cache/prefix MB", "admitted", "rejected", "cache-backed",
		"members", "prefix-starts", "groups", "fanout chunks", "fallbacks", "disk MB", "disk util", "lost")
	for _, pt := range r.Points {
		t.AddRow(
			pt.Mode,
			fmt.Sprintf("%d/%d/%d", pt.BufferMB, pt.CacheMB, pt.PrefixMB),
			pt.Admitted, pt.Rejected, pt.CacheBacked,
			pt.Members, pt.PrefixStarts, pt.Groups, pt.FanoutChunks, pt.Fallbacks,
			pt.BytesReadMB,
			fmt.Sprintf("%.0f%%", 100*pt.DiskUtil),
			pt.Lost,
		)
	}
	return t
}
