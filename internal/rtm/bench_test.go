package rtm

import (
	"testing"

	"repro/internal/sim"
)

// callMsg stands for a typical RPC payload: a small struct that boxes into
// one allocation on its way through a port.
type callMsg struct{ op, arg int }

// echoServer answers every call on svc with a fresh reply (a second boxed
// value) until the port is destroyed.
func echoServer(k *Kernel, svc *Port) {
	k.NewThread("echo", PrioTS, 0, func(th *Thread) {
		for {
			req, reply := svc.ReceiveCall(th)
			m, ok := req.(callMsg)
			if !ok {
				return // DeadName: the port was destroyed
			}
			reply(callMsg{op: m.op, arg: m.arg + 1})
		}
	})
}

// boundedEchoServer is echoServer on a BoundedPort.
func boundedEchoServer(k *Kernel, svc *BoundedPort) {
	k.NewThread("echo", PrioTS, 0, func(th *Thread) {
		for {
			req, reply, ok := svc.ReceiveCall(th)
			if !ok {
				return
			}
			m := req.(callMsg)
			reply(callMsg{op: m.op, arg: m.arg + 1})
		}
	})
}

// withCaller starts an echo server on a Port (bounded=false) or a
// BoundedPort and runs body on a client thread with a call function that
// performs one round trip. The server port is destroyed when body returns.
func withCaller(tb testing.TB, bounded bool, body func(call func(i int))) {
	e := sim.NewEngine(1)
	k := NewKernel(e)
	var call func(th *Thread, i int)
	var destroy func()
	if bounded {
		svc := k.NewBoundedPort("svc", 4)
		boundedEchoServer(k, svc)
		call = func(th *Thread, i int) {
			resp, err := svc.Call(th, callMsg{op: i})
			if err != nil || resp.(callMsg).arg != 1 {
				tb.Fatalf("call %d = %v, %v", i, resp, err)
			}
		}
		destroy = svc.Destroy
	} else {
		svc := k.NewPort("svc")
		echoServer(k, svc)
		call = func(th *Thread, i int) {
			if resp := svc.Call(th, callMsg{op: i}); resp.(callMsg).arg != 1 {
				tb.Fatalf("call %d = %v", i, resp)
			}
		}
		destroy = svc.Destroy
	}
	k.NewThread("client", PrioTS, 0, func(th *Thread) {
		call(th, 0) // warm: the thread's reply port, the port queues
		body(func(i int) { call(th, i) })
		destroy()
	})
	e.Run()
}

// BenchmarkCallRoundTrip is the rtm layer's RPC: one op is one warmed Call
// between two threads — request through the server port, the server's
// wakeup, the reply through the caller's reply port, and the caller's
// wakeup.
func BenchmarkCallRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name    string
		bounded bool
	}{{"Port", false}, {"BoundedPort", true}} {
		b.Run(bc.name, func(b *testing.B) {
			withCaller(b, bc.bounded, func(call func(i int)) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call(i)
				}
				b.StopTimer()
			})
		})
	}
}

// A warmed call allocates at most the boxed request and the boxed reply:
// the reply port, the envelope and the receiver's waiter belong to the
// threads, and the port queues have stopped growing.
func TestCallRoundTripAllocs(t *testing.T) {
	const (
		calls = 100
		bound = 2 // the boxed request and the boxed reply
	)
	for _, bounded := range []bool{false, true} {
		withCaller(t, bounded, func(call func(i int)) {
			// One run of all the calls: AllocsPerRun rounds its mean down,
			// which would hide an allocation made every few calls.
			allocs := testing.AllocsPerRun(1, func() {
				for i := 1; i <= calls; i++ {
					call(i)
				}
			})
			if allocs > calls*bound {
				t.Errorf("bounded=%v: %d warmed calls allocate %v times, want at most %d", bounded, calls, allocs, calls*bound)
			}
		})
	}
}
