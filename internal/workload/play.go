package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// Session is the surface a player consumes, shared by a single-node
// *core.Handle and a *cluster.Session. A session that also reports
// Refused (a cluster viewer given its honest verdict) forfeits the rest of
// its window when it does.
type Session interface {
	Start(th *rtm.Thread) error
	ClockStartsAt(logical sim.Time) sim.Time
	Get(logical sim.Time) (core.BufferedChunk, bool)
	Close(th *rtm.Thread) error
	Info() *media.StreamInfo
	CacheBacked() bool
	MulticastMember() bool
	DeliveredRate() float64
}

// The player's pacing. A frame is on time within one frame duration of its
// due time and given up on giveUp frame durations past it; the wait budget
// anchors to the due time, so a run of lost frames cannot push the player
// ever further behind the stream's clock. No sleep toward a deadline is
// longer than recheck, so a failover that moves the deadline turns into
// waiting, not loss.
const (
	poll    = 2 * time.Millisecond
	giveUp  = 5
	recheck = 100 * time.Millisecond
)

// Outcome is one scripted viewer's fate: its script entry, whether
// admission let it in and on what terms, and its delivery record
// (zero-valued when the viewer was refused).
type Outcome struct {
	Entry
	Admitted    bool
	CacheBacked bool // at open; may drop to disk later
	Multicast   bool // opened as a multicast fan-out member
	PrefixStart bool // first frames backfilled from the pinned prefix
	ReducedOpen bool // warm-up admitted below full delivered rate
	Node        int  // cluster node the open landed on
	Moved       bool // failed over or migrated to another node at least once
	Stats       PlayerStats
}

// Opener opens the session a viewer of title plays.
type Opener func(th *rtm.Thread, title int) (Session, error)

// ServerOpener opens titles on one CRAS server.
func ServerOpener(srv *core.Server, infos []*media.StreamInfo, paths []string) Opener {
	return func(th *rtm.Thread, title int) (Session, error) {
		return srv.Open(th, infos[title], paths[title], core.OpenOptions{})
	}
}

// ClusterOpener opens titles through a cluster's front door.
func ClusterOpener(c *cluster.Cluster, paths []string) Opener {
	return func(th *rtm.Thread, title int) (Session, error) {
		return c.Open(th, paths[title], core.OpenOptions{})
	}
}

// Launch spawns one viewer thread per script entry: each sleeps until its
// arrival, opens its title and plays it. Outcomes fill in as viewers
// finish; callers poll Stats.Done.
func Launch(k *rtm.Kernel, open Opener, sc Script, cfg PlayerConfig) []*Outcome {
	outs := make([]*Outcome, len(sc))
	for i := range sc {
		out := &Outcome{Entry: sc[i]}
		outs[i] = out
		k.NewThread(fmt.Sprintf("view%02d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			defer func() { out.Stats.Done = true }()
			if k.Now() < out.At {
				th.SleepUntil(out.At)
			}
			s, err := open(th, out.Title)
			if err != nil {
				return // refused: Admitted stays false
			}
			out.Admitted = true
			out.CacheBacked, out.Multicast = s.CacheBacked(), s.MulticastMember()
			out.ReducedOpen = s.DeliveredRate() < 1
			switch s := s.(type) {
			case *core.Handle:
				out.PrefixStart = s.PrefixStarted()
			case *cluster.Session:
				out.Node = s.NodeID()
				defer func() { out.Moved = s.Gen() > 0 }()
			}
			Play(k, th, s, out.Ops, cfg, &out.Stats)
		})
	}
	return outs
}

// Play consumes an open session frame by frame at the stream's clock,
// running the scripted ops as their triggers come due, and fills stats as
// it goes. It starts the session and hangs up at the end of the window;
// a crash or a silent client leaves the session open by design.
//
// Every frame of the window is obtained or lost, with one exception: a
// viewer whose session ends early (a hang-up, crash or silent op, or an op
// error other than a typed refusal) does not count the frames it never
// reached.
// A stopped clock (suspended, evicted, or on a dead node) costs the frame:
// the player counts it lost, sleeps one frame duration and goes on. Every
// chunk Get returns must cover the time asked for; one that does not is
// counted in Expired.
func Play(k *rtm.Kernel, th *rtm.Thread, s Session, ops []Op, cfg PlayerConfig, stats *PlayerStats) {
	info := s.Info()
	frames := len(info.Chunks)
	if cfg.MaxFrames > 0 && cfg.MaxFrames < frames {
		frames = cfg.MaxFrames
	}
	stats.Frames = frames
	refused, _ := s.(interface{ Refused() bool })
	// end stops at frame i: the rest of the window is forfeit (counted
	// lost) or, for a session ended early, not counted at all.
	end := func(i int, forfeit, hangUp bool) {
		for ; forfeit && i < frames; i++ {
			stats.lose(i)
		}
		stats.Frames -= frames - i
		stats.FinalRate = s.DeliveredRate()
		if hangUp {
			// The close may lose the race against an eviction or a drain
			// deadline; that duplicate close is not the player's problem.
			s.Close(th)
		}
	}
	if err := s.Start(th); err != nil {
		stats.Err = fmt.Errorf("start: %w", err)
		end(0, true, true)
		return
	}
	begin := sim.Time(-1)
	sinceOp := 0
	for i := 0; i < frames; i++ {
		for len(ops) > 0 && ops[0].due(k.Now(), sinceOp) {
			op := ops[0]
			ops = ops[1:]
			sinceOp = 0
			stats.Fired++
			next, keepOn, hangUp := runOp(th, s, op, i, frames, stats)
			if !keepOn {
				end(i, false, hangUp)
				return
			}
			i = next
		}
		c := info.Chunks[i]
		for {
			if refused != nil && refused.Refused() {
				end(i, true, true)
				return
			}
			due := s.ClockStartsAt(c.Timestamp)
			now := k.Now()
			if due < 0 {
				stats.lose(i)
				th.Sleep(c.Duration)
				break
			}
			if begin < 0 {
				begin = due
			}
			if now < due {
				th.Sleep(min(due-now, recheck))
				continue
			}
			if got, ok := s.Get(c.Timestamp); ok {
				if got.Timestamp > c.Timestamp || c.Timestamp >= got.Timestamp+got.Duration {
					stats.Expired++
				}
				stats.record(now, now-due, c.Size, c.Duration)
				th.Compute(cfg.FrameCPU)
				break
			}
			if now >= due+giveUp*c.Duration {
				stats.lose(i)
				break
			}
			th.Sleep(poll)
		}
		sinceOp++
		stats.Span = k.Now() - begin
	}
	end(frames, false, true)
}

// runOp runs one scripted op before frame i of a frames-long window. It
// returns the frame to play next, whether playback goes on, and, if not,
// whether the player hangs up. A typed refusal is counted and playback
// goes on; any other error ends the session and is kept in stats.Err.
func runOp(th *rtm.Thread, s Session, op Op, i, frames int, stats *PlayerStats) (next int, keepOn, hangUp bool) {
	h, ok := s.(*core.Handle)
	if !ok {
		stats.Err = fmt.Errorf("op %d: the session has no VCR controls", op.Kind)
		return i, false, true
	}
	// fail sorts an op's error: a refusal is counted, anything else ends.
	fail := func(what string, err error) bool {
		if errors.Is(err, core.ErrVCRRefused) {
			stats.Refusals++
			return false
		}
		stats.Err = fmt.Errorf("%s: %w", what, err)
		return true
	}
	frameDur := s.Info().Chunks[0].Duration
	switch op.Kind {
	case OpSeek:
		// The target stays inside the window, so a jump never lands past
		// the frames this viewer measures.
		target := sim.Time(op.Frac * float64(sim.Time(frames)*frameDur))
		if err := h.Seek(th, target); err != nil {
			if fail("seek", err) {
				return i, false, true
			}
		} else if n := int(target / frameDur); n < frames {
			stats.Frames -= n - i
			i = n
		}
	case OpPause:
		if err := h.Pause(th); err != nil {
			return i, !fail("pause", err), true
		}
		th.Sleep(pauseDwell)
		if err := h.Resume(th); err != nil {
			if fail("resume", err) {
				return i, false, true
			}
			// The paused slot could not be re-admitted: wait out the quoted
			// hint once and give up for good on a second no.
			var vcr *core.VCRError
			if errors.As(err, &vcr) && vcr.RetryAfter > 0 {
				th.Sleep(vcr.RetryAfter)
			}
			if err := h.Resume(th); err != nil {
				stats.Err = fmt.Errorf("resume: %w", err)
				return i, false, true
			}
		}
	case OpRate:
		if err := h.SetRate(th, op.Rate); err != nil && fail("rate", err) {
			return i, false, true
		}
	case OpHangUp:
		if err := h.Close(th); err != nil {
			stats.Err = fmt.Errorf("close: %w", err)
		}
		return i, false, false
	case OpCrash:
		// The kernel reclaims the client's ports; the server must find out
		// through the dead-name notification.
		h.Crash()
		return i, false, false
	case OpSilent:
		// Reclaiming the session is the lease reaper's job; a paused one
		// holds pinned buffers and a paused admission slot on the way.
		if op.Pause {
			if err := h.Pause(th); err != nil {
				fail("pause", err)
			}
		}
		return i, false, false
	case OpStorm:
		for n := 0; n < op.N; n++ {
			target := h.LogicalNow()
			if op.Scatter {
				// A scrubbing viewer hops across the title, every landing
				// a real re-admission; the frames it scrubs past are its own
				// to lose.
				target = s.Info().TotalDuration() * sim.Time(n%8) / 8
			}
			if err := h.Seek(th, target); err != nil && fail(fmt.Sprintf("seek %d of storm", n), err) {
				return i, false, true
			}
		}
	}
	return i, true, false
}
