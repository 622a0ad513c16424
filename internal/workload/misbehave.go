package workload

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// Misbehaving clients: the actors the control-plane hardening exists for.
// Each models one way a real application abuses (or abandons) its session;
// the server's leases, shed gate and bounded request port must contain the
// damage to the misbehaving client itself.

// FloodStats is what an open flood observed, split by outcome.
type FloodStats struct {
	Launched  int
	Admitted  int        // opens that succeeded (the flooder closes them again)
	Refused   int        // non-overload refusals (admission, draining, down)
	Shed      int        // typed overload errors (shed gate or full queue)
	RetryHint sim.Time   // last RetryAfter the shed gate suggested
	DoneAt    []sim.Time // completion time of every flood call, in launch order
}

// OpenFlooder launches count one-shot clients at the server, burst apart
// (0 = all at the same instant). Each opens the given movie without force,
// closes immediately on success, and records how it was turned away
// otherwise. The returned stats are complete once the engine drains.
func OpenFlooder(k *rtm.Kernel, srv *core.Server, info *media.StreamInfo, path string,
	count int, burst sim.Time, stats *FloodStats) {
	stats.Launched = count
	stats.DoneAt = make([]sim.Time, count)
	for i := 0; i < count; i++ {
		i := i
		k.NewThread(fmt.Sprintf("flood%d:%s", i, path), rtm.PrioTS, 0, func(th *rtm.Thread) {
			th.Sleep(sim.Time(i) * burst)
			h, err := srv.Open(th, info, path, core.OpenOptions{})
			stats.DoneAt[i] = k.Now()
			var oe *core.OverloadError
			switch {
			case err == nil:
				stats.Admitted++
				h.Close(th)
			case errors.As(err, &oe):
				stats.Shed++
				stats.RetryHint = oe.RetryAfter
			default:
				stats.Refused++
			}
		})
	}
}

// CrashingViewer plays a stream like CRASPlayer but dies without closing at
// crashAt — the client-side half of the dead-name drill. The stats stop at
// the crash; Done is still set so harnesses do not wait for a ghost.
func CrashingViewer(k *rtm.Kernel, srv *core.Server, info *media.StreamInfo, path string,
	crashAt sim.Time, cfg PlayerConfig, stats *PlayerStats) *rtm.Thread {
	frameDur := info.Chunks[0].Duration
	cfg.fill(frameDur)
	return k.NewThread("crashplay:"+path, cfg.Priority, cfg.Quantum, func(th *rtm.Thread) {
		defer func() { stats.Done = true }()
		h, err := srv.Open(th, info, path, core.OpenOptions{})
		if err != nil {
			return
		}
		if err := h.Start(th); err != nil {
			return
		}
		start := k.Now()
		for i, c := range info.Chunks {
			if k.Now() >= crashAt {
				h.Crash()
				break
			}
			due := h.ClockStartsAt(c.Timestamp)
			if due < 0 {
				break
			}
			if k.Now() < due {
				th.SleepUntil(due)
			}
			limit := due + cfg.GiveUp
			for {
				if _, ok := h.Get(c.Timestamp); ok {
					stats.record(k.Now(), k.Now()-due, c.Size, cfg.Tolerance)
					break
				}
				if k.Now() >= limit {
					stats.lose(i)
					break
				}
				th.Sleep(cfg.Poll)
			}
			stats.Frames = i + 1
		}
		stats.Span = k.Now() - start
	})
}

// SilentClient opens a session, starts it, and then does nothing at all —
// no Get, no Renew, no Close. It is the lease reaper's canonical customer.
// openedAt (if non-nil) receives the time the open completed.
func SilentClient(k *rtm.Kernel, srv *core.Server, info *media.StreamInfo, path string,
	openedAt *sim.Time) *rtm.Thread {
	return k.NewThread("silent:"+path, rtm.PrioTS, 0, func(th *rtm.Thread) {
		h, err := srv.Open(th, info, path, core.OpenOptions{})
		if err != nil {
			return
		}
		h.Start(th)
		if openedAt != nil {
			*openedAt = k.Now()
		}
	})
}
