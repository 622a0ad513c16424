package disk

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func testDisk(seed int64) (*sim.Engine, *Disk) {
	e := sim.NewEngine(seed)
	g, p := ST32550N()
	return e, New(e, "sd0", g, p)
}

func TestGeometryCapacity(t *testing.T) {
	g, p := ST32550N()
	cap := g.Capacity()
	if cap < 1_900_000_000 || cap > 2_200_000_000 {
		t.Fatalf("capacity = %d, want ~2GB", cap)
	}
	rate := MediaRate(g, p)
	if rate < 6.3e6 || rate > 6.7e6 {
		t.Fatalf("media rate = %.2f MB/s, want ~6.5", rate/1e6)
	}
}

func TestGeometryCylinderOf(t *testing.T) {
	g, _ := ST32550N()
	spc := int64(g.SectorsPerCylinder())
	if g.CylinderOf(0) != 0 {
		t.Fatal("lba 0 should be cylinder 0")
	}
	if g.CylinderOf(spc-1) != 0 || g.CylinderOf(spc) != 1 {
		t.Fatal("cylinder boundary wrong")
	}
	if g.CylinderOf(g.TotalSectors()-1) != g.Cylinders-1 {
		t.Fatal("last sector not in last cylinder")
	}
}

func TestGeometryValidate(t *testing.T) {
	if (Geometry{Cylinders: 1, Heads: 1, SectorsPerTrack: 1, SectorSize: 512}).Validate() != nil {
		t.Fatal("valid geometry rejected")
	}
	if (Geometry{}).Validate() == nil {
		t.Fatal("zero geometry accepted")
	}
}

func TestSeekTimeShape(t *testing.T) {
	_, p := ST32550N()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should cost nothing")
	}
	if p.SeekTime(1) <= 0 {
		t.Fatal("one-cylinder seek should cost something")
	}
	full := p.SeekTime(3510)
	if full < 16*time.Millisecond || full > 18*time.Millisecond {
		t.Fatalf("full-stroke seek = %v, want ~17ms", full)
	}
	// Continuity at the knee: the two branches should agree within 1%.
	below, above := p.SeekTime(p.SeekKnee-1), p.SeekTime(p.SeekKnee)
	if above < below || above-below > p.SeekTime(3510)/100 {
		t.Fatalf("seek curve discontinuous at knee: %v -> %v", below, above)
	}
}

func TestSeekTimeMonotonicProperty(t *testing.T) {
	_, p := ST32550N()
	f := func(a, b uint16) bool {
		x, y := int(a)%3511, int(b)%3511
		if x > y {
			x, y = y, x
		}
		return p.SeekTime(x) <= p.SeekTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	e, d := testDisk(1)
	payload := make([]byte, 4*512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	e.Spawn("io", func(p *sim.Proc) {
		d.WriteSync(p, 1000, 4, payload, false)
		got = d.ReadSync(p, 1000, 4, false)
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back differs from written data")
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	e, d := testDisk(1)
	var got []byte
	e.Spawn("io", func(p *sim.Proc) { got = d.ReadSync(p, 5000, 2, false) })
	e.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten sector returned non-zero data")
		}
	}

	// A reused caller buffer full of garbage: the written sector is copied
	// in, the unwritten ones around it are zeroed.
	written := bytes.Repeat([]byte{0x3C}, 512)
	d.PokeSector(5001, written)
	buf := bytes.Repeat([]byte{0xFF}, 3*512)
	d.Submit(&Request{LBA: 5000, Count: 3, Data: buf})
	e.Run()
	want := append(append(make([]byte, 512), written...), make([]byte, 512)...)
	if !bytes.Equal(buf, want) {
		t.Fatal("read into a garbage buffer did not overwrite it with the sector contents")
	}
}

func TestSparseWriteClearsPayload(t *testing.T) {
	e, d := testDisk(1)
	var got []byte
	e.Spawn("io", func(p *sim.Proc) {
		d.WriteSync(p, 42, 1, bytes.Repeat([]byte{0xAA}, 512), false)
		d.WriteSync(p, 42, 1, nil, false) // sparse overwrite
		got = d.ReadSync(p, 42, 1, false)
	})
	e.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("sparse write did not clear sector")
		}
	}
	if d.StoredSectors() != 0 {
		t.Fatalf("StoredSectors = %d after sparse overwrite, want 0", d.StoredSectors())
	}
}

func TestServiceTimeDecomposition(t *testing.T) {
	e, d := testDisk(1)
	var reqDone sim.Time
	d.Submit(&Request{LBA: 0, Count: 1, Done: func(r *Request, _ []byte) { reqDone = r.Completed }})
	e.Run()
	st := d.Stats()
	total := st.CmdTime + st.SeekTime + st.RotTime + st.TransferTime
	if total != st.BusyTime {
		t.Fatalf("components %v != busy %v", total, st.BusyTime)
	}
	if reqDone != st.BusyTime {
		t.Fatalf("completion at %v, busy time %v", reqDone, st.BusyTime)
	}
	if st.CmdTime != 2*time.Millisecond {
		t.Fatalf("cmd overhead = %v", st.CmdTime)
	}
	if st.SeekTime != 0 { // arm starts at cylinder 0, request on cylinder 0
		t.Fatalf("seek = %v, want 0", st.SeekTime)
	}
}

func TestRotationalWaitDeterministic(t *testing.T) {
	run := func() sim.Time {
		e, d := testDisk(9)
		var at sim.Time
		e.Spawn("io", func(p *sim.Proc) {
			p.Sleep(3 * time.Millisecond)
			d.ReadSync(p, 17, 1, false)
			at = e.Now()
		})
		e.Run()
		return at
	}
	if run() != run() {
		t.Fatal("identical runs produced different completion times")
	}
}

func TestRotationalWaitBounded(t *testing.T) {
	e, d := testDisk(2)
	e.Spawn("io", func(p *sim.Proc) {
		rng := e.RNG("lba")
		for i := 0; i < 50; i++ {
			d.ReadSync(p, rng.Int63n(d.Geometry().TotalSectors()-8), 1, false)
		}
	})
	e.Run()
	st := d.Stats()
	avgRot := st.RotTime / 50
	if avgRot < 0 || avgRot >= d.Params().RotTime {
		t.Fatalf("average rotational wait %v outside [0, Trot)", avgRot)
	}
}

func TestCSCANServesAscendingFromArm(t *testing.T) {
	e, d := testDisk(1)
	spc := int64(d.Geometry().SectorsPerCylinder())
	var order []int
	mkReq := func(cyl int) *Request {
		return &Request{LBA: int64(cyl) * spc, Count: 1,
			Done: func(r *Request, _ []byte) { order = append(order, cyl) }}
	}
	// First request parks the arm around cylinder 1000; the batch below is
	// queued while it is in service.
	d.Submit(mkReq(1000))
	for _, c := range []int{500, 2000, 1500, 100, 3000} {
		d.Submit(mkReq(c))
	}
	e.Run()
	want := []int{1000, 1500, 2000, 3000, 100, 500}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("C-SCAN order = %v, want %v", order, want)
		}
	}
}

func TestRealTimeQueueServedFirst(t *testing.T) {
	e, d := testDisk(1)
	spc := int64(d.Geometry().SectorsPerCylinder())
	var order []string
	mk := func(name string, cyl int, rt bool) {
		d.Submit(&Request{LBA: int64(cyl) * spc, Count: 1, RealTime: rt,
			Done: func(r *Request, _ []byte) { order = append(order, name) }})
	}
	mk("first", 0, false) // goes into service immediately
	mk("n1", 100, false)
	mk("n2", 200, false)
	mk("rt1", 3000, true)
	mk("rt2", 2500, true)
	e.Run()
	// Active request is never aborted; then both RT requests (C-SCAN order:
	// 2500 then 3000) precede the queued normal ones.
	want := []string{"first", "rt2", "rt1", "n1", "n2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestActiveRequestNotPreempted(t *testing.T) {
	e, d := testDisk(1)
	var normalDone, rtDone sim.Time
	// A long normal transfer...
	d.Submit(&Request{LBA: 0, Count: 512, Done: func(r *Request, _ []byte) { normalDone = r.Completed }})
	// ...with an RT request arriving right after service starts.
	e.At(time.Millisecond, func() {
		d.Submit(&Request{LBA: 0, Count: 1, RealTime: true, Done: func(r *Request, _ []byte) { rtDone = r.Completed }})
	})
	e.Run()
	if rtDone <= normalDone {
		t.Fatalf("RT request finished at %v before active normal request at %v", rtDone, normalDone)
	}
}

func TestSequentialThroughputNearMediaRate(t *testing.T) {
	e, d := testDisk(1)
	const chunks = 64
	const sectorsPer = 512 // 256KB
	var done sim.Time
	e.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < chunks; i++ {
			d.ReadSync(p, int64(i*sectorsPer), sectorsPer, false)
		}
		done = e.Now()
	})
	e.Run()
	bytesMoved := float64(chunks * sectorsPer * 512)
	rate := bytesMoved / done.Seconds()
	media := MediaRate(d.Geometry(), d.Params())
	if rate < 0.8*media || rate > media {
		t.Fatalf("sequential rate %.2f MB/s vs media %.2f MB/s", rate/1e6, media/1e6)
	}
}

func TestStatsQueueAccounting(t *testing.T) {
	e, d := testDisk(1)
	for i := 0; i < 5; i++ {
		d.Submit(&Request{LBA: int64(i * 1000), Count: 1})
	}
	d.Submit(&Request{LBA: 0, Count: 1, RealTime: true})
	e.Run()
	st := d.Stats()
	if st.Served[queueNormal] != 5 || st.Served[queueRT] != 1 {
		t.Fatalf("served = %v", st.Served)
	}
	if st.MaxQueueDepth[queueNormal] != 4 { // first went straight to service
		t.Fatalf("max normal depth = %d, want 4", st.MaxQueueDepth[queueNormal])
	}
	if st.BytesMoved[queueNormal] != 5*512 {
		t.Fatalf("bytes moved = %d", st.BytesMoved[queueNormal])
	}
	if st.TotalQueueWait <= 0 {
		t.Fatal("queued requests should accumulate wait time")
	}
}

func TestSubmitOutOfRangePanics(t *testing.T) {
	_, d := testDisk(1)
	for _, r := range []*Request{
		{LBA: -1, Count: 1},
		{LBA: 0, Count: 0},
		{LBA: d.Geometry().TotalSectors(), Count: 1},
		{LBA: d.Geometry().TotalSectors() - 1, Count: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("request %+v did not panic", r)
				}
			}()
			d.Submit(r)
		}()
	}
}

func TestWritePayloadSizeMismatchPanics(t *testing.T) {
	_, d := testDisk(1)
	for _, write := range []bool{true, false} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mismatched payload (write=%v) did not panic", write)
				}
			}()
			d.Submit(&Request{LBA: 0, Count: 2, Write: write, Data: make([]byte, 512)})
		}()
	}
}

func TestPeekPokeSector(t *testing.T) {
	_, d := testDisk(1)
	data := bytes.Repeat([]byte{0x5C}, 512)
	d.PokeSector(7, data)
	if !bytes.Equal(d.PeekSector(7), data) {
		t.Fatal("peek after poke differs")
	}
	if d.PeekSector(8)[0] != 0 {
		t.Fatal("peek of untouched sector should be zeros")
	}
}

func TestProbeSeekSymmetric(t *testing.T) {
	_, d := testDisk(1)
	if d.ProbeSeek(100, 900) != d.ProbeSeek(900, 100) {
		t.Fatal("seek time should depend only on distance")
	}
	if d.ProbeSeek(5, 5) != 0 {
		t.Fatal("zero-distance probe should be 0")
	}
}

// Property: under C-SCAN, among queued requests the controller never serves
// a request behind the arm while one at or ahead of the arm is waiting.
func TestPropertyCSCANNeverSkipsAhead(t *testing.T) {
	f := func(cylsRaw []uint16) bool {
		if len(cylsRaw) == 0 || len(cylsRaw) > 40 {
			return true
		}
		e, d := testDisk(3)
		spc := int64(d.Geometry().SectorsPerCylinder())
		type fin struct{ cyl, armBefore int }
		var fins []fin
		d.Submit(&Request{LBA: 1800 * spc, Count: 1}) // park arm mid-disk
		for _, c := range cylsRaw {
			cyl := int(c) % d.Geometry().Cylinders
			var armBefore int
			d.Submit(&Request{LBA: int64(cyl) * spc, Count: 1, Tag: &armBefore,
				Done: func(r *Request, _ []byte) {
					fins = append(fins, fin{cyl: d.Geometry().CylinderOf(r.LBA), armBefore: armBefore})
				}})
		}
		e.Run()
		// Completion cylinders must consist of ascending runs (wrapping at
		// most len(fins) times... actually exactly: ascending, then one wrap,
		// then ascending again, since all requests were queued up front).
		wraps := 0
		for i := 1; i < len(fins); i++ {
			if fins[i].cyl < fins[i-1].cyl {
				wraps++
			}
		}
		return wraps <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// C-SCAN vs FIFO on a deep queue of scattered requests: the sweep order
// pays far less seek time — the reason the paper's driver sorts each queue.
func TestCSCANBeatsFIFOSeekTime(t *testing.T) {
	run := func(fifo bool) sim.Time {
		e, d := testDisk(5)
		d.SetFIFO(fifo)
		spc := int64(d.Geometry().SectorsPerCylinder())
		rng := e.RNG("scatter")
		for i := 0; i < 100; i++ {
			d.Submit(&Request{LBA: rng.Int63n(int64(d.Geometry().Cylinders)) * spc, Count: 8})
		}
		e.Run()
		return d.Stats().SeekTime
	}
	cscan := run(false)
	fifo := run(true)
	if cscan >= fifo/3 {
		t.Fatalf("C-SCAN seek total %v vs FIFO %v: expected at least 3x savings", cscan, fifo)
	}
}
