//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated sequential process: a coroutine (iter.Pull) whose
// execution is interleaved deterministically with the engine's events. At
// most one process (or event callback) runs at a time; a process gives up
// control only at explicit blocking points (Sleep, Block, Queue.Get, ...).
type Proc struct {
	eng  *Engine
	name string
	dead bool

	// next (from iter.Pull) resumes the body until it yields; yieldFn is
	// the yield iter.Pull hands the body, captured when it first runs.
	// Either way a switch is a direct coroutine switch, not a trip through
	// the Go scheduler.
	next    func() (struct{}, bool)
	yieldFn func(struct{}) bool

	// blockedReason is non-empty while the process is parked in Block;
	// wakePending records an Unblock that arrived before the Block.
	blockedReason string
	wakePending   bool

	// wake is the process's own calendar event, re-armed by Spawn and by
	// every Sleep, SleepUntil and Unblock. A process has at most one
	// pending wake-up — it is either running, blocked with none, or
	// waiting for exactly this one to fire — so resuming a process
	// allocates nothing. Its fn is the wake-up continuation, set once.
	wake Timer
}

// Name returns the process name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Dead reports whether the process body has returned.
func (p *Proc) Dead() bool { return p.dead }

// Spawn starts a new process whose body begins executing at the current
// virtual time (after already-scheduled events for this instant). A panic
// in the body marks the process dead and propagates out of the Step that
// resumed it, naming the process.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			p.dead = true
			if r := recover(); r != nil {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}()
		body(p)
	})
	p.wake.fn = func() {
		if !p.dead {
			p.run()
		}
	}
	e.arm(&p.wake, e.now)
	return p
}

// run transfers control from the engine to the process and returns when
// the process yields or its body ends.
func (p *Proc) run() { p.next() }

// yield transfers control from the process back to whichever engine
// context resumed it, and returns when the process is resumed again.
func (p *Proc) yield() { p.yieldFn(struct{}{}) }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d)) //crasvet:allow hotalloc -- formats only on the way to a misuse panic; a clean cycle never evaluates it
	}
	p.eng.arm(&p.wake, p.eng.now+d)
	p.yield()
}

// SleepUntil suspends the process until absolute virtual time t. If t is in
// the past it panics, except that t == now is a simple yield to other work
// scheduled for this instant.
func (p *Proc) SleepUntil(t Time) {
	p.eng.arm(&p.wake, t)
	p.yield()
}

// Block parks the process until another event calls Unblock. The reason is
// reported by BlockedReason for debugging. If Unblock was already called
// since the last Block (a "wake pending" token), Block consumes the token
// and returns immediately; this closes the lost-wakeup race between a
// process deciding to block and the event that would wake it.
func (p *Proc) Block(reason string) {
	if p.wakePending {
		p.wakePending = false
		return
	}
	p.blockedReason = reason
	p.yield()
	p.blockedReason = ""
}

// Unblock makes a process blocked in Block runnable at the current virtual
// time. If the process is not currently blocked, a single wakeup token is
// recorded and consumed by its next Block. Unblock must be called from
// engine context (an event callback or another process), never from the
// blocked process itself.
func (p *Proc) Unblock() {
	if p.dead {
		return
	}
	if p.blockedReason == "" {
		p.wakePending = true
		return
	}
	p.blockedReason = ""
	p.eng.arm(&p.wake, p.eng.now)
}

// BlockedReason returns the reason string passed to Block if the process is
// currently parked there, and "" otherwise.
func (p *Proc) BlockedReason() string { return p.blockedReason }
