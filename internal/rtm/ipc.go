package rtm

import (
	"errors"

	"repro/internal/sim"
)

// portWaiter is one blocked receiver. Send hands the message directly into
// the waiter's slot before waking it, so delivery order is the order in
// which receivers blocked: a receiver that shows up between the wakeup and
// the woken thread actually running cannot barge in and steal the message.
type portWaiter struct {
	t     *Thread
	msg   any
	given bool
}

// Port is a Mach-style message queue: sends never block, receives block the
// calling thread until a message arrives. Sends are legal from interrupt
// context (plain sim events), which is how device completion reaches the
// I/O-done manager thread.
type Port struct {
	name    string
	reason  string // "port:" + name, the block reason of a waiting receiver
	msgs    []any
	waiters []*portWaiter
	dead    bool
	notify  *Port // receives DeadName when this port is destroyed
}

// NewPort returns an empty port.
func (k *Kernel) NewPort(name string) *Port { return newPort(name, "") }

// newPort returns an empty port named name+suffix. The name is a tail of
// the block reason, so both cost one string built here rather than one per
// blocking receive.
func newPort(name, suffix string) *Port {
	reason := "port:" + name + suffix
	return &Port{name: reason[len("port:"):], reason: reason}
}

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Send enqueues a message, or hands it directly to the longest-waiting
// receiver if one is blocked. Sends to a destroyed port vanish, like writes
// to a Mach dead name.
func (p *Port) Send(msg any) {
	if p.dead {
		return
	}
	if len(p.waiters) > 0 {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		w.msg, w.given = msg, true
		w.t.wake()
		return
	}
	p.msgs = append(p.msgs, msg) //crasvet:allow hotalloc -- port queue backing array stabilizes at the high-water mark of queued messages
}

// receive dequeues the oldest message, blocking while the port is empty.
// ok is false when the port is (or becomes) destroyed.
func (p *Port) receive(t *Thread) (msg any, ok bool) {
	if len(p.msgs) > 0 {
		m := p.msgs[0]
		p.msgs[0] = nil
		p.msgs = p.msgs[1:]
		return m, true
	}
	if p.dead {
		return nil, false
	}
	w := &portWaiter{t: t}
	p.waiters = append(p.waiters, w)
	for !w.given {
		if p.dead {
			return nil, false
		}
		t.block(p.reason)
	}
	return w.msg, true
}

// Receive dequeues the oldest message, blocking the calling thread while the
// port is empty. On a destroyed port it returns a DeadName message instead
// of blocking forever.
func (p *Port) Receive(t *Thread) any {
	m, ok := p.receive(t)
	if !ok {
		return DeadName{Port: p}
	}
	return m
}

// TryReceive dequeues a message without blocking; ok reports availability.
// Only queued messages are visible: a message already handed to a woken
// receiver cannot be stolen from interrupt context.
func (p *Port) TryReceive() (msg any, ok bool) {
	if len(p.msgs) == 0 {
		return nil, false
	}
	m := p.msgs[0]
	p.msgs[0] = nil
	p.msgs = p.msgs[1:]
	return m, true
}

// Len returns the number of queued messages.
func (p *Port) Len() int { return len(p.msgs) }

// DeadName announces that a port was destroyed: delivered to the port
// registered with NotifyDeadName, and returned by Receive/Call on a
// destroyed port so event loops can tell destruction from a real message.
type DeadName struct{ Port *Port }

// NotifyDeadName registers a port to receive one DeadName message when this
// port is destroyed — the analogue of Mach's dead-name notification, which
// is how a server learns that a client's port vanished with the client.
func (p *Port) NotifyDeadName(n *Port) { p.notify = n }

// Dead reports whether Destroy has been called.
func (p *Port) Dead() bool { return p.dead }

// Destroy marks the port dead: queued messages are discarded (the reply
// ports of queued RPCs are destroyed in turn, so their blocked callers wake
// with an error instead of hanging), blocked receivers wake empty-handed,
// future sends vanish, and the NotifyDeadName port — if registered — gets a
// DeadName message.
func (p *Port) Destroy() {
	if p.dead {
		return
	}
	p.dead = true
	msgs := p.msgs
	p.msgs = nil
	for _, m := range msgs {
		if env, ok := m.(rpcEnvelope); ok {
			env.reply.Destroy()
		}
	}
	waiters := p.waiters
	p.waiters = nil
	for _, w := range waiters {
		w.t.wake()
	}
	if n := p.notify; n != nil {
		p.notify = nil
		n.Send(DeadName{Port: p})
	}
}

// rpcEnvelope carries a request and its reply port through a server port.
type rpcEnvelope struct {
	req   any
	reply *Port
}

// Call performs a synchronous RPC: it sends req to the server port together
// with a private reply port and blocks until the reply arrives. This is the
// shape of every client interaction with the Unix server and with CRAS's
// request manager. If the server port is destroyed — before the call or
// while the request is queued — Call returns a DeadName message.
func (p *Port) Call(t *Thread, req any) any {
	if p.dead {
		return DeadName{Port: p}
	}
	reply := newPort(p.name, ".reply")
	p.Send(rpcEnvelope{req: req, reply: reply})
	m, ok := reply.receive(t)
	if !ok {
		return DeadName{Port: p}
	}
	return m
}

// ReceiveCall dequeues a request sent with Call, returning the request and a
// function that delivers the reply. Servers whose port can be destroyed
// should use BoundedPort.ReceiveCall, which reports destruction explicitly;
// here a destroyed port yields a DeadName request with a no-op reply.
func (p *Port) ReceiveCall(t *Thread) (req any, reply func(resp any)) {
	for {
		m, ok := p.receive(t)
		if !ok {
			return DeadName{Port: p}, func(any) {}
		}
		if env, ok := m.(rpcEnvelope); ok {
			return env.req, func(resp any) { env.reply.Send(resp) }
		}
		// Plain messages are not expected on an RPC port; drop them.
	}
}

// Port-level errors reported by bounded ports.
var (
	// ErrPortFull reports a send or call rejected because the port's queue
	// is at capacity.
	ErrPortFull = errors.New("rtm: port queue full")
	// ErrPortDead reports an operation against a destroyed port.
	ErrPortDead = errors.New("rtm: port destroyed")
)

// BoundedPort is a Port with a receive-queue capacity: Send and Call report
// rejection instead of letting a slow or wedged receiver grow the queue
// without limit — the analogue of a Mach port qlimit. It is a distinct type
// (not an option on Port) so that call sites which ignore the rejection
// result are statically detectable.
type BoundedPort struct {
	p        *Port
	cap      int
	rejected int64
}

// NewBoundedPort returns an empty port that holds at most capacity queued
// messages (minimum 1).
func (k *Kernel) NewBoundedPort(name string, capacity int) *BoundedPort {
	if capacity < 1 {
		capacity = 1
	}
	return &BoundedPort{p: newPort(name, ""), cap: capacity}
}

// Name returns the port name.
func (b *BoundedPort) Name() string { return b.p.name }

// Cap returns the queue capacity.
func (b *BoundedPort) Cap() int { return b.cap }

// Len returns the number of queued messages.
func (b *BoundedPort) Len() int { return b.p.Len() }

// Rejected returns how many sends and calls were turned away — at capacity,
// or attempted against the destroyed port.
func (b *BoundedPort) Rejected() int64 { return b.rejected }

// Dead reports whether Destroy has been called.
func (b *BoundedPort) Dead() bool { return b.p.dead }

// Destroy destroys the underlying port; see Port.Destroy.
func (b *BoundedPort) Destroy() { b.p.Destroy() }

// NotifyDeadName registers a dead-name notification; see Port.NotifyDeadName.
func (b *BoundedPort) NotifyDeadName(n *Port) { b.p.NotifyDeadName(n) }

// full reports whether a new message would exceed capacity. A blocked
// receiver consumes the message immediately, so the queue bound only
// applies when nobody is waiting.
func (b *BoundedPort) full() bool {
	return len(b.p.waiters) == 0 && len(b.p.msgs) >= b.cap
}

// Send enqueues a message and reports whether it was accepted; false means
// the queue was full or the port destroyed, and the message was dropped.
func (b *BoundedPort) Send(msg any) bool {
	if b.p.dead || b.full() {
		b.rejected++
		return false
	}
	b.p.Send(msg)
	return true
}

// Call performs the synchronous RPC of Port.Call, but reports rejection:
// ErrPortFull when the request queue is at capacity, ErrPortDead when the
// port is destroyed before or while the request waits.
func (b *BoundedPort) Call(t *Thread, req any) (any, error) {
	if b.p.dead {
		b.rejected++
		return nil, ErrPortDead
	}
	if b.full() {
		b.rejected++
		return nil, ErrPortFull
	}
	reply := newPort(b.p.name, ".reply")
	b.p.Send(rpcEnvelope{req: req, reply: reply})
	m, ok := reply.receive(t)
	if !ok {
		return nil, ErrPortDead
	}
	return m, nil
}

// Receive dequeues the oldest message, blocking while the port is empty.
// ok is false when the port is destroyed.
func (b *BoundedPort) Receive(t *Thread) (msg any, ok bool) { return b.p.receive(t) }

// TryReceive dequeues a message without blocking; ok reports availability.
func (b *BoundedPort) TryReceive() (msg any, ok bool) { return b.p.TryReceive() }

// ReceiveCall dequeues a request sent with Call; ok is false when the port
// is destroyed, which is a server loop's signal to exit.
func (b *BoundedPort) ReceiveCall(t *Thread) (req any, reply func(resp any), ok bool) {
	for {
		m, ok := b.p.receive(t)
		if !ok {
			return nil, nil, false
		}
		if env, isEnv := m.(rpcEnvelope); isEnv {
			return env.req, func(resp any) { env.reply.Send(resp) }, true
		}
	}
}

// Mutex is a blocking lock with optional priority inheritance. Without
// inheritance it exhibits the classic unbounded priority inversion that
// Real-Time Mach's integrated protocols were built to avoid. Inheritance
// is transitive: boosting a holder that is itself blocked on another
// inheriting mutex re-boosts that mutex's holder, all the way down the
// chain.
type Mutex struct {
	name    string
	reason  string // "mutex:" + name, the block reason of a waiter
	inherit bool
	owner   *Thread
	waiters []*Thread
}

// NewMutex returns an unlocked mutex. inherit enables priority inheritance.
func (k *Kernel) NewMutex(name string, inherit bool) *Mutex {
	return &Mutex{name: name, reason: "mutex:" + name, inherit: inherit}
}

// boostChain raises the holder's priority and follows the blocking chain.
func (m *Mutex) boostChain(prio int) {
	for cur := m; cur != nil && cur.inherit && cur.owner != nil; {
		if prio <= cur.owner.EffectivePriority() {
			return
		}
		owner := cur.owner
		owner.setBoost(prio)
		cur = owner.blockedOn
	}
}

// Lock acquires the mutex, blocking the calling thread while it is held.
func (m *Mutex) Lock(t *Thread) {
	for m.owner != nil {
		m.waiters = append(m.waiters, t)
		if m.inherit {
			m.boostChain(t.EffectivePriority())
		}
		t.blockedOn = m
		t.block(m.reason)
		t.blockedOn = nil
	}
	m.owner = t
}

// Unlock releases the mutex and hands it to the highest-priority waiter.
// Only the owner may unlock.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic("rtm: unlock of mutex not held by caller")
	}
	m.owner = nil
	if m.inherit {
		t.setBoost(0)
	}
	if len(m.waiters) == 0 {
		return
	}
	// Wake the highest-priority waiter (FIFO among equals).
	best := 0
	for i, w := range m.waiters {
		if w.EffectivePriority() > m.waiters[best].EffectivePriority() {
			best = i
		}
	}
	next := m.waiters[best]
	m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
	next.wake()
}

// Owner returns the current holder, or nil.
func (m *Mutex) Owner() *Thread { return m.owner }

// DeadlineMiss is the message a periodic thread posts to its deadline port
// when a cycle overruns.
type DeadlineMiss struct {
	Thread *Thread
	Cycle  int
	LateBy sim.Time
}

// PeriodicConfig describes a periodic thread in the style of Real-Time
// Mach's rt_thread_create: a release every Period starting at Offset, an
// optional relative Deadline, and an optional port notified on misses.
type PeriodicConfig struct {
	Name         string
	Priority     int
	Quantum      sim.Time // 0 = fixed-priority, >0 = round-robin
	Period       sim.Time
	Offset       sim.Time
	Deadline     sim.Time // relative to each release; 0 = none
	DeadlinePort *Port    // receives DeadlineMiss messages; may be nil
}

// NewPeriodicThread starts a thread that runs body once per period. body
// returns false to terminate the thread. If a cycle overruns its period the
// next release is the first period boundary after completion (releases are
// skipped, not queued), matching the paper's request-scheduler behaviour of
// resynchronizing after a missed deadline.
func (k *Kernel) NewPeriodicThread(cfg PeriodicConfig, body func(t *Thread, cycle int) bool) *Thread {
	return k.NewThread(cfg.Name, cfg.Priority, cfg.Quantum, func(t *Thread) {
		release := cfg.Offset
		for cycle := 0; ; cycle++ {
			if k.Now() < release {
				t.SleepUntil(release)
			}
			if !body(t, cycle) {
				return
			}
			if cfg.Deadline > 0 && k.Now() > release+cfg.Deadline {
				if cfg.DeadlinePort != nil {
					cfg.DeadlinePort.Send(DeadlineMiss{Thread: t, Cycle: cycle, LateBy: k.Now() - (release + cfg.Deadline)})
				}
			}
			release += cfg.Period
			for release < k.Now() { // resynchronize after an overrun
				release += cfg.Period
			}
		}
	})
}
