package rtm

import (
	"fmt"

	"repro/internal/sim"
)

// Priority levels. Larger values are more urgent. The bands mirror the
// conventional split between interrupt-level handlers, real-time threads,
// and timesharing activity.
const (
	PrioIdle      = 0
	PrioTS        = 32  // default timesharing level (Unix server, cat, hogs)
	PrioRTLow     = 64  // real-time band
	PrioRT        = 96  // CRAS worker threads
	PrioInterrupt = 127 // I/O-done handling
)

// Kernel is one simulated machine: a CPU scheduler plus the kernel objects
// (threads, ports, mutexes) living on it.
type Kernel struct {
	eng *sim.Engine

	current    *Thread
	burstStart sim.Time
	burstTimer *sim.Timer
	burstSlice sim.Time
	burstEndFn func()    // k.burstEnd, bound once so a burst allocates no closure
	ready      []*Thread // dispatch order list; selection scans for max prio

	// Stats.
	preemptions   int
	dispatches    int
	quantumRounds int
}

// NewKernel returns a kernel on the given engine.
func NewKernel(eng *sim.Engine) *Kernel {
	k := &Kernel{eng: eng}
	k.burstEndFn = k.burstEnd
	return k
}

// Engine returns the underlying simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// Preemptions returns how many times a running thread was preempted.
func (k *Kernel) Preemptions() int { return k.preemptions }

// ThreadState describes where a thread is in its lifecycle.
type ThreadState int

const (
	StateNew ThreadState = iota
	StateRunnable
	StateBlocked
	StateDone
)

func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return "invalid"
}

// Thread is a simulated kernel thread.
type Thread struct {
	k         *Kernel
	proc      *sim.Proc
	name      string
	cpuReason string // "cpu:" + name, the block reason while waiting for the CPU
	base      int    // assigned priority
	boost     int    // inherited priority (0 = none); effective = max(base, boost)
	quantum   sim.Time

	state     ThreadState
	remaining sim.Time // CPU still owed for the current Compute
	inReady   bool
	blockedOn *Mutex // the inheriting mutex this thread waits on, if any

	// Stats.
	cpuUsed      sim.Time
	enqueuedAt   sim.Time
	totalWait    sim.Time // time spent runnable but not running
	maxWait      sim.Time
	computeCalls int
}

// NewThread creates and starts a thread. A quantum of zero selects
// fixed-priority run-to-completion scheduling; a positive quantum selects
// round-robin at the thread's priority level. The body starts executing at
// the current virtual time.
func (k *Kernel) NewThread(name string, prio int, quantum sim.Time, body func(t *Thread)) *Thread {
	if prio < PrioIdle || prio > PrioInterrupt {
		panic(fmt.Sprintf("rtm: priority %d out of range", prio))
	}
	t := &Thread{k: k, name: name, cpuReason: "cpu:" + name, base: prio, quantum: quantum, state: StateNew}
	t.proc = k.eng.Spawn(name, func(p *sim.Proc) {
		t.state = StateRunnable
		body(t)
		t.state = StateDone
	})
	return t
}

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Kernel returns the thread's kernel.
func (t *Thread) Kernel() *Kernel { return t.k }

// Proc exposes the underlying sim process.
func (t *Thread) Proc() *sim.Proc { return t.proc }

// State returns the thread's lifecycle state.
func (t *Thread) State() ThreadState { return t.state }

// Priority returns the assigned (base) priority.
func (t *Thread) Priority() int { return t.base }

// EffectivePriority returns the priority used for scheduling, including any
// inherited boost.
func (t *Thread) EffectivePriority() int {
	if t.boost > t.base {
		return t.boost
	}
	return t.base
}

// CPUUsed returns the total CPU time the thread has consumed.
func (t *Thread) CPUUsed() sim.Time { return t.cpuUsed }

// MaxDispatchWait returns the longest time the thread spent runnable before
// being granted the CPU.
func (t *Thread) MaxDispatchWait() sim.Time { return t.maxWait }

// TotalDispatchWait returns the cumulative time spent waiting for the CPU.
func (t *Thread) TotalDispatchWait() sim.Time { return t.totalWait }

// SetPriority changes the base priority and re-evaluates scheduling.
func (t *Thread) SetPriority(prio int) {
	if prio < PrioIdle || prio > PrioInterrupt {
		panic(fmt.Sprintf("rtm: priority %d out of range", prio))
	}
	t.base = prio
	t.k.dispatch()
}

// setBoost installs an inherited priority (0 clears it).
func (t *Thread) setBoost(boost int) {
	t.boost = boost
	t.k.dispatch()
}

// Compute consumes d of CPU time, contending with other threads under the
// kernel's scheduling policy. It returns when the full amount has been
// granted. A non-positive d is a no-op.
func (t *Thread) Compute(d sim.Time) {
	if d <= 0 {
		return
	}
	t.computeCalls++
	t.remaining = d
	t.enqueuedAt = t.k.eng.Now()
	t.k.pushBack(t)
	t.k.dispatch()
	t.proc.Block(t.cpuReason)
}

// Sleep suspends the thread for d; it holds no CPU while sleeping.
func (t *Thread) Sleep(d sim.Time) {
	t.state = StateBlocked
	t.proc.Sleep(d)
	t.state = StateRunnable
}

// SleepUntil suspends the thread until absolute virtual time at.
func (t *Thread) SleepUntil(at sim.Time) {
	t.state = StateBlocked
	t.proc.SleepUntil(at)
	t.state = StateRunnable
}

// block parks the thread until woken by kernel objects (ports, mutexes).
func (t *Thread) block(reason string) {
	t.state = StateBlocked
	t.proc.Block(reason)
	t.state = StateRunnable
}

// wake makes a thread blocked via block runnable again.
func (t *Thread) wake() { t.proc.Unblock() }

// ---- scheduler core ----

func (k *Kernel) pushBack(t *Thread) {
	if t.inReady {
		return
	}
	t.inReady = true
	k.ready = append(k.ready, t) //crasvet:allow hotalloc -- ready-queue backing array stabilizes at the thread population's high-water mark
}

func (k *Kernel) pushFront(t *Thread) {
	if t.inReady {
		return
	}
	t.inReady = true
	// Grow by one in place and slide the queue right: reuses the backing
	// array once it has reached the thread population, where the old
	// prepend-by-copy allocated a fresh slice on every call.
	k.ready = append(k.ready, nil) //crasvet:allow hotalloc -- ready-queue backing array stabilizes at the thread population's high-water mark
	copy(k.ready[1:], k.ready)
	k.ready[0] = t
}

// peekBest returns the front-most ready thread with maximal effective
// priority, without removing it.
func (k *Kernel) peekBest() *Thread {
	var best *Thread
	for _, t := range k.ready {
		if best == nil || t.EffectivePriority() > best.EffectivePriority() {
			best = t
		}
	}
	return best
}

func (k *Kernel) popBest() *Thread {
	bestIdx := -1
	for i, t := range k.ready {
		if bestIdx < 0 || t.EffectivePriority() > k.ready[bestIdx].EffectivePriority() {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return nil
	}
	t := k.ready[bestIdx]
	k.ready = append(k.ready[:bestIdx], k.ready[bestIdx+1:]...) //crasvet:allow hotalloc -- slide-down remove within the existing backing array; this append never grows
	t.inReady = false
	return t
}

// dispatch re-evaluates who should hold the CPU. It preempts the current
// thread if a strictly higher-priority thread is ready, then grants the CPU
// if it is free.
func (k *Kernel) dispatch() {
	if k.current != nil {
		best := k.peekBest()
		if best != nil && best.EffectivePriority() > k.current.EffectivePriority() {
			k.preempt()
		}
	}
	if k.current == nil {
		if next := k.popBest(); next != nil {
			k.startBurst(next)
		}
	}
}

// preempt stops the current burst and returns the thread to the head of the
// ready list with its remaining CPU debt.
func (k *Kernel) preempt() {
	t := k.current
	consumed := k.eng.Now() - k.burstStart
	k.burstTimer.Cancel()
	k.burstTimer = nil
	k.current = nil
	t.remaining -= consumed
	t.cpuUsed += consumed
	t.enqueuedAt = k.eng.Now()
	k.preemptions++
	if t.remaining <= 0 {
		// Preempted exactly at completion: finish rather than requeue.
		t.wake()
		return
	}
	k.pushFront(t)
}

func (k *Kernel) startBurst(t *Thread) {
	k.current = t
	k.burstStart = k.eng.Now()
	k.dispatches++
	wait := k.eng.Now() - t.enqueuedAt
	t.totalWait += wait
	if wait > t.maxWait {
		t.maxWait = wait
	}
	slice := t.remaining
	if t.quantum > 0 && t.quantum < slice {
		slice = t.quantum
	}
	k.burstSlice = slice
	k.burstTimer = k.eng.After(slice, k.burstEndFn)
}

func (k *Kernel) burstEnd() {
	t := k.current
	consumed := k.eng.Now() - k.burstStart
	k.current = nil
	k.burstTimer = nil
	t.remaining -= consumed
	t.cpuUsed += consumed
	if t.remaining <= 0 {
		t.wake() // Compute returns
	} else {
		// Quantum expired: rotate to the tail of the ready list.
		k.quantumRounds++
		t.enqueuedAt = k.eng.Now()
		k.pushBack(t)
	}
	k.dispatch()
}

// Running returns the thread currently holding the CPU, or nil.
func (k *Kernel) Running() *Thread { return k.current }

// ReadyCount returns the number of threads waiting for the CPU.
func (k *Kernel) ReadyCount() int { return len(k.ready) }
