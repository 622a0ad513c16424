package main

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// counters is one reading of every layer counter the benchmark reports.
// Differences of two readings give the measured phase alone.
type counters struct {
	preemptions int

	diskOps   [2]int // [normal, realtime]
	diskBytes int64
	queueWait sim.Time
	seek      sim.Time
	busy      []sim.Time // per member disk, every machine

	ufsCalls, ufsHits, ufsMisses int64

	coreReads, coreBytes int64
	deadlineMisses       int
	shed                 int
	attached, fallbacks  int // interval-cache and fan-out joins, and those that fell back to disk

	cl cluster.Stats
}

// read takes a reading. It runs in engine context or between engine
// steps, never concurrently with the simulation.
func read(s *system) counters {
	var c counters
	for _, m := range s.machines {
		c.preemptions += m.Kernel.Preemptions()
		for _, d := range m.Vol.Disks() {
			st := d.Stats()
			for q := 0; q < 2; q++ {
				c.diskOps[q] += st.Served[q]
				c.diskBytes += st.BytesMoved[q]
			}
			c.queueWait += st.TotalQueueWait
			c.seek += st.SeekTime
			c.busy = append(c.busy, st.BusyTime)
		}
		c.ufsCalls += m.Unix.Calls
		cache := m.FS.Cache()
		c.ufsHits += cache.Hits
		c.ufsMisses += cache.Misses
		cs := m.CRAS.Stats()
		c.coreReads += cs.ReadsIssued
		c.coreBytes += cs.BytesRead
		c.deadlineMisses += cs.ThreadDeadlineMiss + cs.IODeadlineMiss
		c.shed += cs.RequestsShed
		c.attached += cs.CacheAttached + cs.MulticastAttached
		c.fallbacks += cs.CacheFallbacks + cs.MulticastFallbacks
	}
	if s.cl != nil {
		c.preemptions += s.k.Preemptions() // the front door's own kernel
		c.cl = s.cl.Stats()
	}
	return c
}

// sub returns c minus the earlier reading b.
func (c counters) sub(b counters) counters {
	d := c
	d.preemptions -= b.preemptions
	for q := 0; q < 2; q++ {
		d.diskOps[q] -= b.diskOps[q]
	}
	d.diskBytes -= b.diskBytes
	d.queueWait -= b.queueWait
	d.seek -= b.seek
	d.busy = make([]sim.Time, len(c.busy))
	for i := range c.busy {
		d.busy[i] = c.busy[i] - b.busy[i]
	}
	d.ufsCalls -= b.ufsCalls
	d.ufsHits -= b.ufsHits
	d.ufsMisses -= b.ufsMisses
	d.coreReads -= b.coreReads
	d.coreBytes -= b.coreBytes
	d.deadlineMisses -= b.deadlineMisses
	d.shed -= b.shed
	d.attached -= b.attached
	d.fallbacks -= b.fallbacks
	d.cl.Opens -= b.cl.Opens
	d.cl.OpenRejects -= b.cl.OpenRejects
	d.cl.PlacementOpens -= b.cl.PlacementOpens
	d.cl.RingOpens -= b.cl.RingOpens
	d.cl.SpillOpens -= b.cl.SpillOpens
	d.cl.HeartbeatsObserved -= b.cl.HeartbeatsObserved
	return d
}

// percentile returns the nearest-rank q-quantile of xs (0 for no samples).
// It sorts xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the middle of xs, averaging the two middle values of an
// even count. It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(t sim.Time) float64 { return float64(t) / 1e6 }
