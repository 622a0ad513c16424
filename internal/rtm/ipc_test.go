package rtm

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPortSendReceive(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("msgs")
	var got []int
	k.NewThread("rx", PrioTS, 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			got = append(got, p.Receive(th).(int))
		}
	})
	e.At(ms(10), func() { p.Send(1) }) // interrupt-context send
	e.At(ms(20), func() { p.Send(2); p.Send(3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestPortReceiveBlocksUntilSend(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("p")
	var at sim.Time
	k.NewThread("rx", PrioTS, 0, func(th *Thread) {
		p.Receive(th)
		at = k.Now()
	})
	e.At(ms(77), func() { p.Send("x") })
	e.Run()
	if at != ms(77) {
		t.Fatalf("receive returned at %v, want 77ms", at)
	}
}

func TestPortTryReceive(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	p := k.NewPort("p")
	if _, ok := p.TryReceive(); ok {
		t.Fatal("TryReceive on empty port reported ok")
	}
	p.Send(7)
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	if v, ok := p.TryReceive(); !ok || v.(int) != 7 {
		t.Fatalf("TryReceive = %v,%v", v, ok)
	}
}

func TestPortRPC(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	svc := k.NewPort("service")
	k.NewThread("server", PrioTS, 0, func(th *Thread) {
		for i := 0; i < 2; i++ {
			req, reply := svc.ReceiveCall(th)
			th.Compute(ms(5))
			reply(req.(int) * 10)
		}
	})
	var answers []int
	k.NewThread("client", PrioTS, 0, func(th *Thread) {
		answers = append(answers, svc.Call(th, 1).(int))
		answers = append(answers, svc.Call(th, 2).(int))
	})
	e.Run()
	if len(answers) != 2 || answers[0] != 10 || answers[1] != 20 {
		t.Fatalf("answers = %v", answers)
	}
}

// Each blocking point reports a reason naming the kernel object it waits
// on; the text is part of the debugging surface (crastrace, chaos dumps).
func TestBlockedReasons(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	inbox := k.NewPort("inbox")
	svc := k.NewPort("svc")
	bsvc := k.NewBoundedPort("bsvc", 1)
	m := k.NewMutex("lock", true)
	threads := map[string]*Thread{
		"rx":      k.NewThread("rx", PrioTS, 0, func(th *Thread) { inbox.Receive(th) }),
		"caller":  k.NewThread("caller", PrioTS, 0, func(th *Thread) { svc.Call(th, 1) }),
		"bcaller": k.NewThread("bcaller", PrioTS, 0, func(th *Thread) { _, _ = bsvc.Call(th, 1) }),
		"holder": k.NewThread("holder", PrioTS, 0, func(th *Thread) {
			m.Lock(th)
			th.Compute(ms(100))
			m.Unlock(th)
		}),
		"locker": k.NewThread("locker", PrioTS, 0, func(th *Thread) {
			th.Sleep(ms(1))
			m.Lock(th)
			m.Unlock(th)
		}),
	}
	want := map[string]string{
		"rx":      "port:inbox",
		"caller":  "port:svc.reply",
		"bcaller": "port:bsvc.reply",
		"holder":  "cpu:holder",
		"locker":  "mutex:lock",
	}
	e.At(ms(5), func() {
		for name, th := range threads {
			if got := th.Proc().BlockedReason(); got != want[name] {
				t.Errorf("%s: BlockedReason = %q, want %q", name, got, want[name])
			}
		}
	})
	e.RunUntil(ms(10))
}

func TestMutexMutualExclusion(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	m := k.NewMutex("m", false)
	inside := 0
	maxInside := 0
	worker := func(name string) {
		k.NewThread(name, PrioTS, 0, func(th *Thread) {
			for i := 0; i < 5; i++ {
				m.Lock(th)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Sleep(ms(3)) // hold across a blocking point
				inside--
				m.Unlock(th)
				th.Sleep(ms(1))
			}
		})
	}
	worker("w1")
	worker("w2")
	worker("w3")
	e.Run()
	if maxInside != 1 {
		t.Fatalf("critical section held by %d threads at once", maxInside)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	m := k.NewMutex("m", false)
	k.NewThread("a", PrioTS, 0, func(th *Thread) { m.Lock(th) })
	k.NewThread("b", PrioTS, 0, func(th *Thread) {
		th.Sleep(ms(1))
		defer func() {
			if recover() == nil {
				t.Error("unlock by non-owner did not panic")
			}
		}()
		m.Unlock(th)
	})
	e.Run()
}

func TestMutexHandoffToHighestPriorityWaiter(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	m := k.NewMutex("m", false)
	var order []string
	k.NewThread("holder", PrioTS, 0, func(th *Thread) {
		m.Lock(th)
		th.Sleep(ms(20))
		m.Unlock(th)
	})
	waiter := func(name string, prio int, startDelay sim.Time) {
		k.NewThread(name, prio, 0, func(th *Thread) {
			th.Sleep(startDelay)
			m.Lock(th)
			order = append(order, name)
			m.Unlock(th)
		})
	}
	waiter("low", PrioTS, ms(1))
	waiter("high", PrioRT, ms(2))
	e.Run()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("lock handoff order = %v, want [high low]", order)
	}
}

// The canonical priority-inversion scenario: without inheritance the
// high-priority thread is delayed by an unrelated medium thread; with
// inheritance the low holder is boosted and the inversion is bounded.
func TestPriorityInversionBoundedByInheritance(t *testing.T) {
	run := func(inherit bool) sim.Time {
		e := sim.NewEngine(1)
		k := NewKernel(e)
		m := k.NewMutex("res", inherit)
		var hiLockAt sim.Time
		k.NewThread("low", PrioTS, 0, func(th *Thread) {
			m.Lock(th)
			th.Compute(ms(10)) // inside critical section
			m.Unlock(th)
		})
		k.NewThread("med", PrioTS+10, 0, func(th *Thread) {
			th.Sleep(ms(2))
			th.Compute(ms(200)) // CPU-bound, unrelated to the lock
		})
		k.NewThread("high", PrioRT, 0, func(th *Thread) {
			th.Sleep(ms(1))
			m.Lock(th)
			hiLockAt = k.Now()
			m.Unlock(th)
		})
		e.Run()
		return hiLockAt
	}
	without := run(false)
	with := run(true)
	if with > ms(15) {
		t.Fatalf("with inheritance, high acquired at %v; inversion not bounded", with)
	}
	if without < ms(200) {
		t.Fatalf("without inheritance, high acquired at %v; expected unbounded inversion behind medium", without)
	}
}

// Transitive inheritance: H blocks on m2 held by M, which blocks on m1
// held by L — the boost must reach L through the chain, or an unrelated
// medium-priority hog starves the whole pile.
func TestPriorityInheritanceTransitive(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	m1 := k.NewMutex("m1", true)
	m2 := k.NewMutex("m2", true)
	var hiLockAt sim.Time
	k.NewThread("low", PrioTS, 0, func(th *Thread) {
		m1.Lock(th)
		th.Compute(ms(10))
		m1.Unlock(th)
	})
	k.NewThread("mid-chain", PrioTS+5, 0, func(th *Thread) {
		th.Sleep(ms(1))
		m2.Lock(th)
		m1.Lock(th) // blocks on low
		m1.Unlock(th)
		m2.Unlock(th)
	})
	k.NewThread("hog", PrioTS+20, 0, func(th *Thread) {
		th.Sleep(ms(3))
		th.Compute(ms(500)) // would starve low and mid-chain
	})
	k.NewThread("high", PrioRT, 0, func(th *Thread) {
		th.Sleep(ms(2))
		m2.Lock(th) // boost must propagate m2->mid-chain->m1->low
		hiLockAt = k.Now()
		m2.Unlock(th)
	})
	e.Run()
	if hiLockAt > ms(20) {
		t.Fatalf("high acquired m2 at %v; transitive inheritance failed", hiLockAt)
	}
}

func TestPeriodicThreadReleases(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var releases []sim.Time
	k.NewPeriodicThread(PeriodicConfig{
		Name: "tick", Priority: PrioRT, Period: ms(100), Offset: ms(50),
	}, func(th *Thread, cycle int) bool {
		releases = append(releases, k.Now())
		return cycle < 3
	})
	e.Run()
	want := []sim.Time{ms(50), ms(150), ms(250), ms(350)}
	if len(releases) != len(want) {
		t.Fatalf("releases = %v", releases)
	}
	for i := range want {
		if releases[i] != want[i] {
			t.Fatalf("release %d at %v, want %v", i, releases[i], want[i])
		}
	}
}

func TestPeriodicDeadlineMissNotification(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	dp := k.NewPort("deadline")
	k.NewPeriodicThread(PeriodicConfig{
		Name: "worker", Priority: PrioRT, Period: ms(100), Deadline: ms(50), DeadlinePort: dp,
	}, func(th *Thread, cycle int) bool {
		if cycle == 1 {
			th.Compute(ms(80)) // overruns the 50ms deadline
		} else {
			th.Compute(ms(10))
		}
		return cycle < 2
	})
	var misses []DeadlineMiss
	k.NewThread("manager", PrioInterrupt, 0, func(th *Thread) {
		misses = append(misses, dp.Receive(th).(DeadlineMiss))
	})
	e.Run()
	if len(misses) != 1 {
		t.Fatalf("misses = %d, want 1", len(misses))
	}
	if misses[0].Cycle != 1 || misses[0].LateBy != ms(30) {
		t.Fatalf("miss = %+v, want cycle 1 late by 30ms", misses[0])
	}
}

func TestPeriodicResynchronizesAfterOverrun(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var releases []sim.Time
	k.NewPeriodicThread(PeriodicConfig{
		Name: "slow", Priority: PrioRT, Period: ms(100),
	}, func(th *Thread, cycle int) bool {
		releases = append(releases, k.Now())
		if cycle == 0 {
			th.Compute(ms(250)) // blows through two periods
		}
		return cycle < 2
	})
	e.Run()
	// Cycle 0 releases at 0 and finishes at 250; next release resyncs to 300.
	if len(releases) != 3 || releases[1] != ms(300) || releases[2] != ms(400) {
		t.Fatalf("releases = %v, want [0 300ms 400ms]", releases)
	}
}

func TestPeriodicQuantumPropagates(t *testing.T) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	th := k.NewPeriodicThread(PeriodicConfig{
		Name: "rr", Priority: PrioTS, Quantum: ms(10), Period: ms(100),
	}, func(th *Thread, cycle int) bool { return false })
	e.RunUntil(time.Second)
	if th.quantum != ms(10) {
		t.Fatalf("quantum = %v, want 10ms", th.quantum)
	}
}
