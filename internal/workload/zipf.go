package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// ZipfPicker draws movie ranks from a Zipf popularity law: rank r (from 0)
// is chosen with probability proportional to 1/(r+1)^alpha. Alpha 0 is the
// uniform law; video-on-demand catalogs are usually measured near 0.7-1.1,
// which is what makes interval caching pay — most viewers pile onto a few
// titles and arrive while those titles are already playing.
type ZipfPicker struct {
	cum []float64 // cumulative, normalized to cum[len-1] == 1
}

// NewZipfPicker builds the law over n ranks.
func NewZipfPicker(n int, alpha float64) *ZipfPicker {
	z := &ZipfPicker{cum: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), alpha)
		z.cum[r] = sum
	}
	for r := range z.cum {
		z.cum[r] /= sum
	}
	return z
}

// Pick maps a uniform draw in [0,1) to a rank.
func (z *ZipfPicker) Pick(u float64) int {
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ViewerOutcome is one Zipf viewer's fate: which movie it asked for,
// whether admission let it in, whether it rode the interval cache, and its
// delivery record (zero-valued when the viewer was rejected).
type ViewerOutcome struct {
	Movie       int
	At          sim.Time // scripted arrival time
	Admitted    bool
	CacheBacked bool // at open; may drop to disk later (see Stats)
	Multicast   bool // opened as a multicast fan-out member
	PrefixStart bool // first frames backfilled from the pinned prefix
	Stats       PlayerStats
}

// ZipfViewerConfig shapes a multi-client arrival pattern.
type ZipfViewerConfig struct {
	Clients       int
	Alpha         float64
	ArrivalSpread sim.Time // viewer arrivals uniform in [0, spread)
	Player        PlayerConfig
}

// LaunchZipfViewers spawns a population of viewers whose movie choices
// follow Zipf(alpha) and whose arrivals are uniform over the spread. Every
// random draw happens up front, before any thread runs, so the workload is
// a fixed script: identical (rng, config) inputs replay the identical
// arrival sequence no matter how the server interleaves them. Outcomes are
// filled in as viewers finish; callers poll Stats.Done.
func LaunchZipfViewers(k *rtm.Kernel, srv *core.Server, infos []*media.StreamInfo,
	paths []string, rng *sim.RNG, cfg ZipfViewerConfig) []*ViewerOutcome {
	picker := NewZipfPicker(len(paths), cfg.Alpha)
	outs := make([]*ViewerOutcome, cfg.Clients)
	for i := range outs {
		outs[i] = &ViewerOutcome{Movie: picker.Pick(rng.Float64())}
		if cfg.ArrivalSpread > 0 {
			outs[i].At = rng.DurationRange(0, cfg.ArrivalSpread)
		}
	}
	for i := range outs {
		out := outs[i]
		info := infos[out.Movie]
		path := paths[out.Movie]
		k.NewThread(fmt.Sprintf("zipf%02d:%s", i, path), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			defer func() { out.Stats.Done = true }()
			if k.Now() < out.At {
				th.SleepUntil(out.At)
			}
			h, err := srv.Open(th, info, path, core.OpenOptions{})
			if err != nil {
				return // rejected by admission: Admitted stays false
			}
			out.Admitted = true
			out.CacheBacked = h.CacheBacked()
			defer h.Close(th)
			playViewer(k, th, h, info, cfg.Player, &out.Stats)
		})
	}
	return outs
}

// playViewer is the CRASPlayer consumption loop for an already-open handle.
func playViewer(k *rtm.Kernel, th *rtm.Thread, h *core.Handle,
	info *media.StreamInfo, cfg PlayerConfig, stats *PlayerStats) {
	frameDur := sim.Time(time.Second)
	if len(info.Chunks) > 0 {
		frameDur = info.Chunks[0].Duration
	}
	cfg.fill(frameDur)
	if err := h.Start(th); err != nil {
		return
	}
	frames := len(info.Chunks)
	if cfg.MaxFrames > 0 && cfg.MaxFrames < frames {
		frames = cfg.MaxFrames
	}
	stats.Frames = frames
	begin := sim.Time(-1)
	for i := 0; i < frames; i++ {
		c := info.Chunks[i]
		due := h.ClockStartsAt(c.Timestamp)
		if begin < 0 {
			begin = due
		}
		if due >= 0 && k.Now() < due {
			th.SleepUntil(due)
		}
		// The wait budget anchors to the due time, so a run of lost frames
		// cannot push the player ever further behind the stream's clock (it
		// skips, as a real player would).
		limit := due + cfg.GiveUp
		for {
			if _, ok := h.Get(c.Timestamp); ok {
				stats.record(k.Now(), k.Now()-due, c.Size, cfg.Tolerance)
				th.Compute(cfg.FrameCPU)
				break
			}
			if k.Now() >= limit {
				stats.lose(i)
				break
			}
			th.Sleep(cfg.Poll)
		}
		stats.Span = k.Now() - begin
	}
}
