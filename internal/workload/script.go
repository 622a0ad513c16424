package workload

import (
	"time"

	"repro/internal/sim"
)

// OpKind names one scripted client action: the VCR operations of an
// interactive viewer and the client misbehaviours of the chaos drills.
type OpKind int

const (
	OpSeek   OpKind = iota // jump to Frac of the played window
	OpPause                // pause, dwell, resume
	OpRate                 // switch the playback rate to Rate
	OpHangUp               // close mid-title; the unplayed frames are not losses
	OpCrash                // die without closing
	OpSilent               // stop consuming and renewing, leave the session open
	OpStorm                // N back-to-back seeks
)

// Op is one scripted action. It fires before the next frame once its
// trigger is due: After frames played since the previous op, or, when At
// is set, once the virtual clock reaches At.
type Op struct {
	Kind    OpKind
	After   int
	At      sim.Time
	Frac    float64 // OpSeek: target as a fraction of the window
	Rate    float64 // OpRate
	N       int     // OpStorm: seeks to fire
	Scatter bool    // OpStorm: land across the title instead of in place
	Pause   bool    // OpSilent: pause the session before falling silent
}

// due reports whether the op fires now, played frames after the previous
// op.
func (op Op) due(now sim.Time, played int) bool {
	if op.At > 0 {
		return now >= op.At
	}
	return played >= op.After
}

// Entry is one scripted viewer: the title it asks for, when it arrives,
// and the operations it runs while playing.
type Entry struct {
	Title int
	At    sim.Time
	Kind  string // "plain" | "zapper" | "scrubber"
	Ops   []Op
}

// Script is a pre-drawn viewer population.
type Script []Entry

// ScriptConfig shapes a Zipf population. Arrivals come in Waves, WaveGap
// apart, each viewer landing uniformly within WaveSpread of its wave's
// start; one wave is a uniform arrival spread. Waves are what the
// multicast batching window feeds on: same-wave viewers of a hot title
// coalesce into one disk-fed group, later waves lean on the pinned prefix.
// An Interactive population deals a quarter of its viewers out as zappers
// (speed flips and jump-cut seeks) and a quarter as scrubbers (pauses and
// short seeks back), each running vcrOps operations opFrames apart.
type ScriptConfig struct {
	Clients     int
	Alpha       float64  // Zipf skew of the title choice
	Waves       int      // arrival bursts; default 1
	WaveGap     sim.Time // time between wave starts
	WaveSpread  sim.Time // arrivals uniform in [wave start, +spread)
	Interactive bool
}

// The interactive population's shape.
const (
	zapFraction   = 0.25
	scrubFraction = 0.25
	vcrOps        = 3
	opFrames      = 45
	pauseDwell    = 1500 * time.Millisecond
)

// NewScript draws the population over titles ranks. Every random draw
// happens here, before any viewer runs, in a fixed per-viewer order (title,
// arrival, then kind and ops), so identical (rng, config) inputs replay the
// identical workload however the server interleaves it. Viewers are dealt
// to waves round-robin, so every wave carries the same Zipf mix.
func NewScript(rng *sim.RNG, titles int, cfg ScriptConfig) Script {
	if cfg.Waves <= 0 {
		cfg.Waves = 1
	}
	picker := NewZipfPicker(titles, cfg.Alpha)
	sc := make(Script, cfg.Clients)
	for i := range sc {
		e := &sc[i]
		e.Title = picker.Pick(rng.Float64())
		e.At = sim.Time(i%cfg.Waves) * cfg.WaveGap
		if cfg.WaveSpread > 0 {
			e.At += rng.DurationRange(0, cfg.WaveSpread)
		}
		e.Kind = "plain"
		if !cfg.Interactive {
			continue
		}
		switch u := rng.Float64(); {
		case u < zapFraction:
			e.Kind = "zapper"
		case u < zapFraction+scrubFraction:
			e.Kind = "scrubber"
		default:
			continue
		}
		e.Ops = make([]Op, vcrOps)
		for j := range e.Ops {
			op := Op{Kind: OpSeek, After: opFrames}
			switch {
			case e.Kind == "zapper" && j%2 == 0:
				// Zappers flip speeds on even ops (2x skims, then back)
				// and jump-cut anywhere in the title on odd ones.
				op.Kind, op.Rate = OpRate, []float64{2, 1}[j%4/2]
			case e.Kind == "zapper":
				op.Frac = rng.Float64() * 0.8
			case j%2 == 0:
				// Scrubbers freeze the frame on even ops and replay a
				// short way back on odd ones.
				op.Kind = OpPause
			default:
				op.Frac = rng.Float64() * 0.5
			}
			e.Ops[j] = op
		}
	}
	return sc
}
