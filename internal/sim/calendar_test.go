package sim

import (
	"sort"
	"testing"
	"time"
)

// calRef is the reference model's record of one scheduled event.
type calRef struct {
	at        Time
	seq       int // scheduling order, the calendar's tie-break
	tm        *Timer
	cancelled bool
	fired     bool
}

func (r *calRef) pending() bool { return !r.cancelled && !r.fired }

// Property: under a seeded mix of At/After with many same-instant events,
// callbacks that schedule and cancel further events, cancels before and
// after firing, and RunUntil over cancelled heads, the engine fires exactly
// the uncancelled events in (at, seq) order, and every Timer and
// PendingEvents answer agrees with a plain list model at every step.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		calendarRun(t, seed)
	}
}

func calendarRun(t *testing.T, seed int64) {
	e := NewEngine(seed)
	rng := e.RNG("calendar")
	var refs []*calRef
	var fired []*calRef
	const limit = 600

	head := func() *calRef {
		var h *calRef
		for _, r := range refs {
			if r.pending() && (h == nil || r.at < h.at || (r.at == h.at && r.seq < h.seq)) {
				h = r
			}
		}
		return h
	}
	check := func(where string) {
		t.Helper()
		n := 0
		for _, r := range refs {
			if r.tm.Pending() != r.pending() {
				t.Fatalf("seed %d %s: event %d Pending = %v, want %v", seed, where, r.seq, r.tm.Pending(), r.pending())
			}
			if r.tm.When() != r.at {
				t.Fatalf("seed %d %s: event %d When = %v, want %v", seed, where, r.seq, r.tm.When(), r.at)
			}
			if r.pending() {
				n++
			}
		}
		if got := e.PendingEvents(); got != n {
			t.Fatalf("seed %d %s: PendingEvents = %d, want %d", seed, where, got, n)
		}
	}
	cancel := func(r *calRef) {
		t.Helper()
		want := r.pending()
		if got := r.tm.Cancel(); got != want {
			t.Fatalf("seed %d: Cancel of event %d (fired %v, cancelled %v) = %v, want %v",
				seed, r.seq, r.fired, r.cancelled, got, want)
		}
		r.cancelled = r.cancelled || want
	}

	var schedule func()
	fire := func(r *calRef) {
		if h := head(); h != r {
			t.Fatalf("seed %d: fired event %d at %v, reference head is %+v", seed, r.seq, e.Now(), h)
		}
		if e.Now() != r.at {
			t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, r.seq, e.Now(), r.at)
		}
		r.fired = true
		fired = append(fired, r)
		cancel(r) // a firing event is no longer pending
		if len(refs) < limit {
			for k := rng.Intn(3); k > 0; k-- {
				schedule()
			}
		}
		if rng.Intn(3) == 0 {
			cancel(refs[rng.Intn(len(refs))])
		}
		check("in callback")
	}
	schedule = func() {
		// Few distinct offsets, so many events share an instant.
		d := Time(rng.Intn(4)) * time.Millisecond
		r := &calRef{at: e.Now() + d, seq: len(refs)}
		if rng.Intn(2) == 0 {
			r.tm = e.At(r.at, func() { fire(r) })
		} else {
			r.tm = e.After(d, func() { fire(r) })
		}
		refs = append(refs, r)
	}

	for i := 0; i < 40; i++ {
		schedule()
	}
	check("after setup")
	for head() != nil {
		switch rng.Intn(3) {
		case 0:
			if !e.Step() {
				t.Fatalf("seed %d: Step found nothing with events pending", seed)
			}
		case 1:
			// Cancel the head, then run to a nearby horizon: RunUntil
			// must discard the cancelled head without moving the clock
			// to it.
			cancel(head())
			fallthrough
		default:
			horizon := e.Now() + Time(rng.Intn(3))*time.Millisecond
			e.RunUntil(horizon)
			if e.Now() != horizon {
				t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, horizon, e.Now())
			}
			if h := head(); h != nil && h.at <= horizon {
				t.Fatalf("seed %d: RunUntil(%v) left event %d at %v unfired", seed, horizon, h.seq, h.at)
			}
		}
		check("between steps")
	}
	if e.Step() {
		t.Fatalf("seed %d: Step fired an event the reference says was cancelled", seed)
	}

	var want []*calRef
	for _, r := range refs {
		if !r.cancelled {
			want = append(want, r)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(fired) != len(want) {
		t.Fatalf("seed %d: fired %d events, reference fires %d", seed, len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("seed %d: fire %d was event %d, reference says %d", seed, i, fired[i].seq, want[i].seq)
		}
	}
}
