package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// VCRViewerConfig shapes an interactive population: alongside the plain
// lean-back viewers, a fraction of the audience zaps (channel-surf seeks
// and speed flips) and a fraction scrubs (pause, dwell, resume, instant
// replay). Every interactive viewer runs a pre-drawn script of Ops VCR
// operations spaced OpFrames of playback apart, so identical (rng,
// config) inputs replay the identical operation sequence.
type VCRViewerConfig struct {
	Clients       int
	Alpha         float64  // Zipf skew of the movie choice
	ArrivalSpread sim.Time // arrivals uniform in [0, spread)
	ZapFraction   float64  // of clients that channel-surf; default 0.25
	ScrubFraction float64  // of clients that pause/scrub; default 0.25
	Ops           int      // VCR operations per interactive viewer; default 3
	OpFrames      int      // frames played between operations; default 45
	PauseDwell    sim.Time // scrubber freeze length; default 1.5 s
	Player        PlayerConfig
}

func (c *VCRViewerConfig) fill() {
	if c.ZapFraction == 0 {
		c.ZapFraction = 0.25
	}
	if c.ScrubFraction == 0 {
		c.ScrubFraction = 0.25
	}
	if c.Ops == 0 {
		c.Ops = 3
	}
	if c.OpFrames == 0 {
		c.OpFrames = 45
	}
	if c.PauseDwell == 0 {
		c.PauseDwell = 1500 * time.Millisecond
	}
}

// VCROutcome extends the plain viewer outcome with the interactive record:
// what kind of viewer this was, how many VCR operations it issued, how
// many came back as typed refusals, and the delivered rate it ended on
// (reduced-rate warm-up, ladder step-downs and rate changes all move it).
type VCROutcome struct {
	ViewerOutcome
	Kind        string // "plain" | "zapper" | "scrubber"
	Ops         int    // VCR operations issued
	Refusals    int    // answered with a typed ErrVCRRefused
	ReducedOpen bool   // warm-up admitted below full delivered rate
	FinalRate   float64
}

// vcrOp is one pre-drawn script entry.
type vcrOp struct {
	kind string  // "seek" | "pause" | "rate"
	frac float64 // seek target as a fraction of the title
	rate float64 // rate to flip to (a later op flips back)
}

// LaunchVCRViewers spawns the interactive Zipf population. Like the other
// Launch helpers, every random draw — movie, arrival, viewer kind, and
// the whole per-viewer operation script — happens up front, so the
// workload is a fixed script regardless of server interleaving.
func LaunchVCRViewers(k *rtm.Kernel, srv *core.Server, infos []*media.StreamInfo,
	paths []string, rng *sim.RNG, cfg VCRViewerConfig) []*VCROutcome {
	cfg.fill()
	picker := NewZipfPicker(len(paths), cfg.Alpha)
	outs := make([]*VCROutcome, cfg.Clients)
	scripts := make([][]vcrOp, cfg.Clients)
	for i := range outs {
		outs[i] = &VCROutcome{ViewerOutcome: ViewerOutcome{Movie: picker.Pick(rng.Float64())}, Kind: "plain"}
		if cfg.ArrivalSpread > 0 {
			outs[i].At = rng.DurationRange(0, cfg.ArrivalSpread)
		}
		switch u := rng.Float64(); {
		case u < cfg.ZapFraction:
			outs[i].Kind = "zapper"
		case u < cfg.ZapFraction+cfg.ScrubFraction:
			outs[i].Kind = "scrubber"
		}
		if outs[i].Kind == "plain" {
			continue
		}
		script := make([]vcrOp, cfg.Ops)
		for j := range script {
			switch outs[i].Kind {
			case "zapper":
				// Zappers hop around the title and flip speeds: 2x skims on
				// even ops, a jump-cut seek on odd ones.
				if j%2 == 0 {
					script[j] = vcrOp{kind: "rate", rate: []float64{2, 1}[j%4/2]}
				} else {
					script[j] = vcrOp{kind: "seek", frac: rng.Float64() * 0.8}
				}
			case "scrubber":
				// Scrubbers freeze the frame and replay: pauses alternate
				// with short seeks back.
				if j%2 == 0 {
					script[j] = vcrOp{kind: "pause"}
				} else {
					script[j] = vcrOp{kind: "seek", frac: rng.Float64() * 0.5}
				}
			}
		}
		scripts[i] = script
	}
	for i := range outs {
		out := outs[i]
		script := scripts[i]
		info := infos[out.Movie]
		path := paths[out.Movie]
		k.NewThread(fmt.Sprintf("vcr%02d:%s", i, path), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
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
			out.Multicast = h.MulticastMember()
			out.PrefixStart = h.PrefixStarted()
			out.ReducedOpen = h.DeliveredRate() < 1
			defer func() {
				out.FinalRate = h.DeliveredRate()
				h.Close(th)
			}()
			playVCRViewer(k, th, h, info, cfg, script, out)
		})
	}
	return outs
}

// playVCRViewer is playViewer with the viewer's VCR script spliced in:
// after every OpFrames obtained-or-lost frames the next operation runs on
// the viewer's own thread, so its position in the delivery sequence is
// deterministic. Typed refusals are counted and playback continues; any
// other error ends the session (the server evicted us).
func playVCRViewer(k *rtm.Kernel, th *rtm.Thread, h *core.Handle,
	info *media.StreamInfo, vcfg VCRViewerConfig, script []vcrOp, out *VCROutcome) {
	stats := &out.Stats
	cfg := vcfg.Player
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
	begin := sim.Time(-1)
	sinceOp := 0
	for i := 0; i < frames; i++ {
		if len(script) > 0 && sinceOp >= vcfg.OpFrames {
			sinceOp = 0
			op := script[0]
			script = script[1:]
			out.Ops++
			switch op.kind {
			case "seek":
				// Clamp inside the frames this viewer will actually play, so a
				// jump never lands past the measured window.
				target := sim.Time(op.frac * float64(sim.Time(frames)*frameDur))
				if err := h.Seek(th, target); err != nil {
					if !errors.Is(err, core.ErrVCRRefused) {
						return
					}
					out.Refusals++
				} else if next := int(target / frameDur); next < frames {
					i = next // resume consumption at the new play point
				}
			case "pause":
				if err := h.Pause(th); err != nil {
					if !errors.Is(err, core.ErrVCRRefused) {
						return
					}
					out.Refusals++
					break
				}
				th.Sleep(vcfg.PauseDwell)
				if err := h.Resume(th); err != nil {
					if !errors.Is(err, core.ErrVCRRefused) {
						return
					}
					out.Refusals++
					// The paused slot could not be re-admitted; wait out the
					// quoted hint once and give up for good on a second no.
					var vcr *core.VCRError
					if errors.As(err, &vcr) && vcr.RetryAfter > 0 {
						th.Sleep(vcr.RetryAfter)
					}
					if err := h.Resume(th); err != nil {
						return
					}
				}
			case "rate":
				if err := h.SetRate(th, op.rate); err != nil {
					if !errors.Is(err, core.ErrVCRRefused) {
						return
					}
					out.Refusals++
				}
			}
		}
		c := info.Chunks[i]
		due := h.ClockStartsAt(c.Timestamp)
		if due < 0 {
			return // clock stopped under us: suspended or evicted
		}
		if begin < 0 {
			begin = due
		}
		if k.Now() < due {
			th.SleepUntil(due)
		}
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
		stats.Frames++
		sinceOp++
		stats.Span = k.Now() - begin
	}
}
