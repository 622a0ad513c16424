package sim

import (
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(ms(25))
		wake = e.Now()
	})
	e.Run()
	if wake != ms(25) {
		t.Fatalf("woke at %v, want 25ms", wake)
	}
}

func TestProcSequentialSemantics(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Sleep(ms(10))
		trace = append(trace, "a2")
		p.Sleep(ms(10))
		trace = append(trace, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
		p.Sleep(ms(15))
		trace = append(trace, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2", "a3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcBlockUnblock(t *testing.T) {
	e := NewEngine(1)
	var resumedAt Time
	p := e.Spawn("worker", func(p *Proc) {
		p.Block("waiting for signal")
		resumedAt = e.Now()
	})
	e.At(ms(40), func() { p.Unblock() })
	e.Run()
	if resumedAt != ms(40) {
		t.Fatalf("resumed at %v, want 40ms", resumedAt)
	}
}

func TestProcUnblockBeforeBlockIsNotLost(t *testing.T) {
	e := NewEngine(1)
	done := false
	var p *Proc
	p = e.Spawn("late-blocker", func(pp *Proc) {
		pp.Sleep(ms(10)) // the wakeup arrives while we sleep
		pp.Block("should consume pending token")
		done = true
	})
	e.At(ms(5), func() { p.Unblock() })
	e.RunUntil(ms(100))
	if !done {
		t.Fatal("pending wakeup token was lost; process still blocked")
	}
}

func TestProcBlockedReason(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("w", func(p *Proc) { p.Block("io") })
	e.At(ms(1), func() {
		if got := p.BlockedReason(); got != "io" {
			t.Errorf("BlockedReason = %q, want io", got)
		}
	})
	e.RunUntil(ms(2))
}

func TestProcDeadAfterReturn(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("short", func(p *Proc) {})
	e.Run()
	if !p.Dead() {
		t.Fatal("process should be dead after body returns")
	}
	p.Unblock() // must be a no-op, not a hang or panic
}

// stepRecover fires one event and returns whatever panic it raised.
func stepRecover(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Step()
	return nil
}

// A panic in a process body surfaces from the Step that resumed the
// process, names the process and carries the cause, and leaves the engine
// usable with the process dead.
func TestProcPanicPropagates(t *testing.T) {
	check := func(t *testing.T, r any) {
		t.Helper()
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("recovered %T %v, want a string naming the process", r, r)
		}
		if !strings.Contains(msg, `"bomb"`) || !strings.Contains(msg, "boom") {
			t.Fatalf("recovered %q, want the process name \"bomb\" and the cause boom", msg)
		}
	}

	t.Run("first-dispatch", func(t *testing.T) {
		e := NewEngine(1)
		p := e.Spawn("bomb", func(p *Proc) { panic("boom") })
		r := func() (r any) {
			defer func() { r = recover() }()
			e.Run()
			return nil
		}()
		if r == nil {
			t.Fatal("process panic did not propagate to Run")
		}
		check(t, r)
		if !p.Dead() {
			t.Fatal("panicked process not marked dead")
		}
	})

	t.Run("after-wake", func(t *testing.T) {
		e := NewEngine(1)
		p := e.Spawn("bomb", func(p *Proc) {
			p.Block("fuse")
			panic("boom")
		})
		later := false
		e.At(ms(10), func() { p.Unblock() })
		e.At(ms(20), func() { later = true })
		if r := stepRecover(e); r != nil {
			t.Fatalf("spawn step panicked: %v", r)
		}
		if p.BlockedReason() != "fuse" {
			t.Fatalf("BlockedReason = %q after spawn, want fuse", p.BlockedReason())
		}
		if r := stepRecover(e); r != nil { // the Unblock event
			t.Fatalf("unblock step panicked: %v", r)
		}
		r := stepRecover(e) // the wakeup resumes the body
		if r == nil {
			t.Fatal("panic after wakeup did not propagate out of Step")
		}
		check(t, r)
		if e.Now() != ms(10) {
			t.Fatalf("panic surfaced at %v, want 10ms", e.Now())
		}
		if !p.Dead() {
			t.Fatal("panicked process not marked dead")
		}
		p.Unblock() // a dead process ignores wakeups
		e.Run()
		if !later {
			t.Fatal("engine did not keep firing events after the panic")
		}
	})
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("s", func(p *Proc) {
		p.SleepUntil(ms(30))
		at = e.Now()
	})
	e.Run()
	if at != ms(30) {
		t.Fatalf("woke at %v, want 30ms", at)
	}
}

func TestWaiterFIFO(t *testing.T) {
	e := NewEngine(1)
	w := NewWaiter("q")
	var order []string
	mk := func(name string) {
		e.Spawn(name, func(p *Proc) {
			w.Wait(p)
			order = append(order, name)
		})
	}
	mk("first")
	mk("second")
	mk("third")
	e.At(ms(10), func() { w.WakeOne() })
	e.At(ms(20), func() { w.WakeAll() })
	e.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("wake order = %v", order)
	}
}

func TestWaiterWakeOneOnEmpty(t *testing.T) {
	w := NewWaiter("empty")
	if w.WakeOne() {
		t.Fatal("WakeOne on empty waiter reported true")
	}
	if n := w.WakeAll(); n != 0 {
		t.Fatalf("WakeAll on empty waiter = %d", n)
	}
}

func TestWaiterRemove(t *testing.T) {
	e := NewEngine(1)
	w := NewWaiter("q")
	woken := false
	p := e.Spawn("victim", func(p *Proc) {
		w.Wait(p)
		woken = true
	})
	e.At(ms(5), func() {
		if !w.Remove(p) {
			t.Error("Remove did not find the waiting process")
		}
		if w.Remove(p) {
			t.Error("second Remove should report false")
		}
		w.WakeAll()
	})
	e.RunUntil(ms(50))
	if woken {
		t.Fatal("removed process was woken by WakeAll")
	}
}

func TestQueuePutGet(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int]("ints")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.At(ms(10), func() { q.Put(1) })
	e.At(ms(20), func() { q.Put(2); q.Put(3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueGetBeforePut(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[string]("s")
	var at Time
	e.Spawn("c", func(p *Proc) {
		if v := q.Get(p); v != "hello" {
			t.Errorf("Get = %q", v)
		}
		at = e.Now()
	})
	e.At(ms(33), func() { q.Put("hello") })
	e.Run()
	if at != ms(33) {
		t.Fatalf("consumer resumed at %v, want 33ms", at)
	}
}

func TestQueueBlockedReason(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int]("inbox")
	p := e.Spawn("c", func(p *Proc) { q.Get(p) })
	e.RunUntil(ms(1))
	if got := p.BlockedReason(); got != "wait:inbox" {
		t.Fatalf("BlockedReason = %q, want wait:inbox", got)
	}
}

func TestQueueTryGetAndDrain(t *testing.T) {
	q := NewQueue[int]("t")
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue reported ok")
	}
	q.Put(1)
	q.Put(2)
	if v, ok := q.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet = %v,%v", v, ok)
	}
	q.Put(3)
	got := q.Drain()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Drain = %v", got)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after Drain")
	}
}

func TestQueueMultipleConsumersFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int]("fair")
	var winners []string
	consumer := func(name string) {
		e.Spawn(name, func(p *Proc) {
			q.Get(p)
			winners = append(winners, name)
		})
	}
	consumer("c1")
	consumer("c2")
	e.At(ms(10), func() { q.Put(100) })
	e.At(ms(20), func() { q.Put(200) })
	e.Run()
	if len(winners) != 2 || winners[0] != "c1" || winners[1] != "c2" {
		t.Fatalf("winners = %v, want [c1 c2]", winners)
	}
}

func TestManyProcsNoGoroutineDeadlock(t *testing.T) {
	e := NewEngine(1)
	total := 0
	for i := 0; i < 200; i++ {
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(time.Millisecond)
			}
			total++
		})
	}
	e.Run()
	if total != 200 {
		t.Fatalf("completed %d procs, want 200", total)
	}
}

// TestProcWakeAllocs pins the process-owned wake timer: once the calendar
// has grown to its working size, a Sleep/Block/Unblock ping-pong between
// two processes schedules every wake-up without allocating.
func TestProcWakeAllocs(t *testing.T) {
	e := NewEngine(1)
	var a, b *Proc
	a = e.Spawn("a", func(p *Proc) {
		for {
			p.Sleep(ms(1))
			b.Unblock()
			p.Block("wait:b")
		}
	})
	b = e.Spawn("b", func(p *Proc) {
		for {
			p.Block("wait:a")
			p.SleepUntil(e.Now() + ms(1))
			a.Unblock()
		}
	})
	e.RunFor(ms(10)) // warm: both coroutines started, calendar grown
	if allocs := testing.AllocsPerRun(100, func() { e.RunFor(ms(10)) }); allocs != 0 {
		t.Errorf("Sleep/Block/Unblock ping-pong: %v allocs per 10 ms, want 0", allocs)
	}
	if a.Dead() || b.Dead() || e.PendingEvents() != 1 {
		t.Errorf("after ping-pong: dead a=%v b=%v, %d pending events, want live and 1",
			a.Dead(), b.Dead(), e.PendingEvents())
	}
}

// TestProcWakeKeepsSchedulingOrder: re-arming a process's own wake timer
// draws its sequence number when the wake-up is scheduled, so a wake-up and
// plain events at the same instant still fire first-scheduled first.
func TestProcWakeKeepsSchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.At(ms(5), func() { trace = append(trace, "early") })
	p := e.Spawn("p", func(p *Proc) {
		p.Sleep(ms(5)) // scheduled after "early", before "late"
		trace = append(trace, "sleep")
		p.Block("wait")
		trace = append(trace, "unblock")
		p.SleepUntil(e.Now())
		trace = append(trace, "yield")
	})
	e.At(ms(0), func() { e.At(ms(5), func() { trace = append(trace, "late") }) })
	e.At(ms(7), func() {
		p.Unblock()
		e.At(ms(7), func() { trace = append(trace, "after-unblock") })
	})
	e.Run()
	want := "early sleep late unblock after-unblock yield"
	if got := strings.Join(trace, " "); got != want {
		t.Errorf("trace %q, want %q", got, want)
	}
}
