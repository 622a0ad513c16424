package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, expressed as an offset from the start of
// the simulation. The zero value is the simulation epoch.
type Time = time.Duration

// Infinity is a virtual time later than any time an experiment will reach.
const Infinity Time = math.MaxInt64

// Timer is a scheduled event and the caller's handle to it: the calendar
// holds the same object At returns, so scheduling costs one allocation. It
// can be cancelled before it fires.
type Timer struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

// Cancel prevents the event from firing. It reports whether the event was
// still pending (true) or had already fired or been cancelled (false).
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.cancelled = true
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (t *Timer) Pending() bool {
	return t != nil && !t.cancelled && !t.fired
}

// When returns the virtual time at which the event is (or was) scheduled.
func (t *Timer) When() Time { return t.at }

// before is the calendar order: time, then scheduling sequence, so events
// at one instant fire first-scheduled first.
func before(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of timers in calendar order. Cancelled
// timers stay in it until they reach the head and are discarded.
type eventHeap []*Timer

func (h *eventHeap) push(t *Timer) {
	*h = append(*h, t) //crasvet:allow hotalloc -- the calendar's backing array grows to the peak event count once and is reused from then on
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(t, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = t
}

// pop removes and returns the head. The heap must be non-empty.
func (h *eventHeap) pop() *Timer {
	q := *h
	head := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return head
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(q[r], q[child]) {
			child = r
		}
		if !before(q[child], last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return head
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use from multiple goroutines: event callbacks and processes
// run one at a time, synchronously inside the Step, Run or RunUntil call
// that fires them.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	seed    int64
	stopped bool
	tracer  func(t Time, format string, args ...any)
}

// NewEngine returns an engine positioned at virtual time zero. The seed
// determines every named RNG stream drawn from the engine.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer installs a trace sink used by Tracef. A nil tracer disables
// tracing.
func (e *Engine) SetTracer(fn func(t Time, format string, args ...any)) { e.tracer = fn }

// Tracef emits a trace line if a tracer is installed.
func (e *Engine) Tracef(format string, args ...any) {
	if e.tracer != nil {
		e.tracer(e.now, format, args...)
	}
}

// Tracing reports whether a tracer is installed. Hot paths test it before
// calling Tracef so the variadic arguments are not boxed for nothing.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: the simulation's causality would be violated. Scheduling at the
// current time is allowed; the event runs after all events already scheduled
// for that time.
func (e *Engine) At(t Time, fn func()) *Timer {
	tm := &Timer{fn: fn} //crasvet:allow hotalloc -- one Timer per scheduled callback is the engine's unit of work and escapes to the caller by contract; pooling would tie reuse to handle lifetimes and break Cancel-after-fire
	e.arm(tm, t)
	return tm
}

// arm schedules tm, whose fn is already set, at t with the next sequence
// number. A timer the calendar no longer holds (fired, or never scheduled)
// may be re-armed; one still pending must not be.
func (e *Engine) arm(tm *Timer, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now)) //crasvet:allow hotalloc -- formats only on the way to a causality panic; a clean cycle never evaluates it
	}
	e.seq++
	tm.at, tm.seq = t, e.seq
	tm.cancelled, tm.fired = false, false
	e.events.push(tm)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d)) //crasvet:allow hotalloc -- formats only on the way to a misuse panic; a clean cycle never evaluates it
	}
	return e.At(e.now+d, fn)
}

// Stop makes the current Run call return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next pending event, advancing virtual time to it. It
// reports whether an event fired. A panic in the event's callback, or in a
// process the event resumes, propagates out of Step.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		tm := e.events.pop()
		if tm.cancelled {
			continue
		}
		e.now = tm.at
		tm.fired = true
		tm.fn()
		return true
	}
	return false
}

// Run fires events until the calendar is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.events) == 0 {
			break
		}
		// Skip over cancelled heads without advancing time.
		if e.events[0].cancelled {
			e.events.pop()
			continue
		}
		if e.events[0].at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// PendingEvents returns the number of scheduled, non-cancelled events.
func (e *Engine) PendingEvents() int {
	n := 0
	for _, tm := range e.events {
		if !tm.cancelled {
			n++
		}
	}
	return n
}
