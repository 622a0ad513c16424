package sim

import "testing"

// BenchmarkEngineAtStep schedules one event and fires it, against a
// standing calendar of 1024 far-future events so the heap has real depth.
// One op is one At plus one Step.
func BenchmarkEngineAtStep(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.At(Infinity, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
}

// BenchmarkProcSwitch ping-pongs a token between two processes through a
// pair of Queues. One op is one round trip: each process blocks and is
// resumed once.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine(1)
	ping, pong := NewQueue[int]("ping"), NewQueue[int]("pong")
	n := b.N
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			pong.Put(ping.Get(p))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
