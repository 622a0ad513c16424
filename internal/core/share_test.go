package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// dualBed is one producer feeding a fan-out group and leading a path cache
// at the same time: two members joined inside the batching window, two
// followers attached after it. trace collects every sharing trace line.
type dualBed struct {
	b                  *bed
	prod               *Handle
	members, followers []*Handle
	lost               []int // per consumer, in consumers() order
	playing            int   // player threads still running
	trace              []string
}

// dualConfig enables both sharing policies with budgets large enough that
// no charge is refused; popularity stays off, so a latecomer past the
// batching window cannot join the group and follows the cache instead.
func dualConfig() Config {
	cfg := mcastConfig()
	cfg.CacheBudget = 16 << 20
	return cfg
}

// openDual builds the dual-producer topology, checks each viewer landed in
// the relation the ladder order promises, and starts a player thread per
// consumer the moment it opens.
func openDual(t *testing.T, b *bed, th *rtm.Thread, movie *media.StreamInfo, frames int) *dualBed {
	t.Helper()
	d := &dualBed{b: b}
	b.e.SetTracer(func(_ sim.Time, format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "cras: cache ") || strings.Contains(line, "cras: mcast ") {
			d.trace = append(d.trace, line)
		}
	})
	open := func(label string) *Handle {
		h, err := b.cras.Open(th, movie, "/hot", OpenOptions{})
		if err != nil {
			t.Fatalf("open %s: %v", label, err)
		}
		h.Start(th)
		return h
	}
	play := func(h *Handle) {
		i := len(d.lost)
		d.lost = append(d.lost, 0)
		d.playing++
		b.k.NewThread(fmt.Sprintf("player-%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			_, d.lost[i] = playAndMeasure(b, th, h, frames)
			d.playing--
		})
	}
	d.prod = open("producer")
	for i := 0; i < 2; i++ {
		th.Sleep(300 * time.Millisecond)
		m := open(fmt.Sprintf("member %d", i))
		if !m.MulticastMember() {
			t.Fatalf("member %d opened inside the batching window is not a fan-out member", i)
		}
		d.members = append(d.members, m)
		play(m)
	}
	th.Sleep(2 * time.Second) // past the 2 s batching window
	for i := 0; i < 2; i++ {
		f := open(fmt.Sprintf("follower %d", i))
		if f.MulticastMember() || !f.CacheBacked() {
			t.Fatalf("follower %d: member=%v cached=%v, want a cache follower of the feed",
				i, f.MulticastMember(), f.CacheBacked())
		}
		d.followers = append(d.followers, f)
		play(f)
		th.Sleep(300 * time.Millisecond)
	}
	if d.prod.MulticastMember() || d.prod.CacheBacked() {
		t.Fatalf("the producer consumes from a share itself")
	}
	return d
}

// consumers is every viewer that rides the producer.
func (d *dualBed) consumers() []*Handle {
	return append(append([]*Handle(nil), d.members...), d.followers...)
}

// wait blocks until every player finished and returns the lost frames.
func (d *dualBed) wait(th *rtm.Thread) []int {
	for d.playing > 0 {
		th.Sleep(100 * time.Millisecond)
	}
	return d.lost
}

// count reports how many collected trace lines contain every substring.
func (d *dualBed) count(subs ...string) int {
	n := 0
	for _, line := range d.trace {
		all := true
		for _, s := range subs {
			all = all && strings.Contains(line, s)
		}
		if all {
			n++
		}
	}
	return n
}

// closeAll closes every viewer and checks that both pools are empty again.
func (d *dualBed) closeAll(t *testing.T, th *rtm.Thread) {
	t.Helper()
	for _, h := range append([]*Handle{d.prod}, d.consumers()...) {
		h.Close(th)
	}
	checkShareLedger(t, d.b.cras)
	checkPoolsEmpty(t, d.b.cras)
}

// TestDualProducerClosePromotesBoth: closing a stream that feeds a group
// and leads a path cache promotes in both relations at once — the earliest
// member becomes the feed, the earliest follower the leader — and no
// surviving viewer loses a frame.
func TestDualProducerClosePromotesBoth(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 12*time.Second)
	newBed(t, 21, ufs.Options{}, dualConfig(),
		map[string]*media.StreamInfo{"/hot": movie},
		func(b *bed, th *rtm.Thread) {
			d := openDual(t, b, th, movie, 250)
			th.Sleep(time.Second)
			if err := d.prod.Close(th); err != nil {
				t.Fatalf("close producer: %v", err)
			}
			m0, f0 := d.members[0], d.followers[0]
			if n := d.count(fmt.Sprintf("cras: mcast promote stream %d to feed", m0.st.id)); n != 1 {
				t.Errorf("earliest member %d promoted to feed %d times, want 1", m0.st.id, n)
			}
			if n := d.count(fmt.Sprintf("cras: cache promote stream %d to leader", f0.st.id)); n != 1 {
				t.Errorf("earliest follower %d promoted to leader %d times, want 1", f0.st.id, n)
			}
			if m0.MulticastMember() || f0.CacheBacked() {
				t.Errorf("promoted producers still consume: member=%v cached=%v", m0.MulticastMember(), f0.CacheBacked())
			}
			if !d.members[1].MulticastMember() || !d.followers[1].CacheBacked() {
				t.Errorf("later consumers left their relations: member=%v cached=%v",
					d.members[1].MulticastMember(), d.followers[1].CacheBacked())
			}
			st := b.cras.Stats()
			if st.MulticastPromotions != 1 || st.CachePromotions != 1 {
				t.Errorf("promotions: multicast %d cache %d, want 1 and 1", st.MulticastPromotions, st.CachePromotions)
			}
			checkShareLedger(t, b.cras)
			for i, lost := range d.wait(th) {
				if lost != 0 {
					t.Errorf("consumer %d lost %d frames across the producer's close", i, lost)
				}
			}
			if st := b.cras.Stats(); st.MulticastFallbacks != 0 || st.CacheFallbacks != 0 {
				t.Errorf("fallbacks: multicast %d cache %d, want none", st.MulticastFallbacks, st.CacheFallbacks)
			}
			d.closeAll(t, th)
		})
}

// TestDualProducerVCRStrandsBoth: Pause, Seek and SetRate on a stream that
// produces for both relations strand both consumer sets — every member and
// every follower falls back to disk — and the ledger drains to zero.
func TestDualProducerVCRStrandsBoth(t *testing.T) {
	movie := media.MPEG1().Generate("/hot", 12*time.Second)
	for _, tc := range []struct {
		name, reason string
		op           func(h *Handle, th *rtm.Thread) error
	}{
		{"pause", "paused", func(h *Handle, th *rtm.Thread) error { return h.Pause(th) }},
		{"seek", "seeked", func(h *Handle, th *rtm.Thread) error { return h.Seek(th, sim.Time(6*time.Second)) }},
		{"setrate", "rate change", func(h *Handle, th *rtm.Thread) error { return h.SetRate(th, 2.0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newBed(t, 22, ufs.Options{}, dualConfig(),
				map[string]*media.StreamInfo{"/hot": movie},
				func(b *bed, th *rtm.Thread) {
					d := openDual(t, b, th, movie, 200)
					th.Sleep(time.Second)
					if err := tc.op(d.prod, th); err != nil {
						t.Fatalf("%s producer: %v", tc.name, err)
					}
					for i, h := range d.consumers() {
						if h.MulticastMember() || h.CacheBacked() || h.Params().Cached || h.Params().Multicast {
							t.Errorf("consumer %d still shares after the producer's %s", i, tc.name)
						}
					}
					if n := d.count("cras: mcast fallback", "feed "+tc.reason); n != 2 {
						t.Errorf("members stranded through the feed break: %d, want 2", n)
					}
					if n := d.count("cras: cache fallback", "leader "+tc.reason); n != 2 {
						t.Errorf("followers stranded through the leader break: %d, want 2", n)
					}
					st := b.cras.Stats()
					if st.MulticastFallbacks != 2 || st.CacheFallbacks != 2 {
						t.Errorf("fallbacks: multicast %d cache %d, want 2 and 2", st.MulticastFallbacks, st.CacheFallbacks)
					}
					checkShareLedger(t, b.cras)
					for i, lost := range d.wait(th) {
						if lost != 0 {
							t.Errorf("consumer %d lost %d frames after falling back", i, lost)
						}
					}
					d.closeAll(t, th)
				})
		})
	}
}

// checkShareLedger checks the sharing ledger against the session table:
// per pool, committed equals the sum of its consumers' charges and pinned
// the sum of its pins (path-cache pin sizes, title prefix byte counts —
// the multicast suite checks each count against its pins); the budget
// bounds hold; each consumer's admission flags and charge match its
// relation; and a closed stream holds no charge and takes part in no
// share. Reports every drift and returns false if there was any.
func checkShareLedger(t *testing.T, s *Server) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		ok = false
		t.Errorf("share ledger: "+format, args...)
	}
	var committed, pinned [2]int64
	for _, st := range s.streams {
		par := st.par
		switch {
		case st.closed:
			if st.src != nil || st.charge != 0 || st.prod != [2]*share{} {
				fail("closed stream %d still shares (charge %d)", st.id, st.charge)
			}
		case st.consumes(pinShare):
			committed[pinShare] += st.charge
			if !par.Cached || par.Multicast {
				fail("follower %d admitted as Cached=%v Multicast=%v", st.id, par.Cached, par.Multicast)
			}
		case st.consumes(fanShare):
			committed[fanShare] += st.charge
			if !par.Multicast || par.Cached || par.FanoutBytes != st.charge {
				fail("member %d admission params out of step: Multicast=%v Cached=%v FanoutBytes=%d charge=%d",
					st.id, par.Multicast, par.Cached, par.FanoutBytes, st.charge)
			}
		case par.Cached || par.Multicast || st.charge != 0:
			fail("non-consumer %d admitted as Cached=%v Multicast=%v with charge %d",
				st.id, par.Cached, par.Multicast, st.charge)
		}
	}
	for _, sh := range s.pools[pinShare].shares {
		for _, c := range sh.pins {
			pinned[pinShare] += c.Size
		}
	}
	for _, pp := range s.prefixes {
		pinned[fanShare] += pp.bytes
	}
	for k, p := range s.pools {
		if p.committed != committed[k] {
			fail("pool %d committed %d, sum of consumer charges %d", k, p.committed, committed[k])
		}
		if p.pinned != pinned[k] {
			fail("pool %d pinned %d, sum of pins %d", k, p.pinned, pinned[k])
		}
	}
	if c := s.pools[pinShare]; c.committed > c.budget {
		fail("cache reservations overcommitted: %d > budget %d", c.committed, c.budget)
	}
	if f := s.pools[fanShare]; f.committed+f.pinned > f.budget {
		fail("fan-out budget exceeded: committed %d + pinned %d > %d", f.committed, f.pinned, f.budget)
	}
	return ok
}

// checkPoolsEmpty checks that both pools hold nothing: no charge, no pin,
// no live share. Prefix pins are never released, so it only holds where no
// title qualified for one.
func checkPoolsEmpty(t *testing.T, s *Server) {
	t.Helper()
	for k, p := range s.pools {
		if p.committed != 0 || p.pinned != 0 || len(p.shares) != 0 {
			t.Errorf("pool %d not empty: committed %d pinned %d shares %d", k, p.committed, p.pinned, len(p.shares))
		}
	}
}
