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
