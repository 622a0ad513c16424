package disk

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// Request is one disk operation. Data is the caller-owned payload in both
// directions, Count*SectorSize bytes when set. A write stores it (nil
// writes zeros, i.e. a sparse write that allocates no payload). A read
// fills it in place, unwritten sectors as zeros; a read with nil Data is
// timing-only: it pays seek, rotation and transfer, counts in Stats and
// draws its fault decisions exactly like a buffered read, but moves no
// bytes. This is the paper's raw read interface: the server owns its
// buffers, and the controller never allocates one.
type Request struct {
	LBA      int64
	Count    int // sectors
	Write    bool
	Data     []byte // caller-owned payload; see the type comment for nil
	RealTime bool   // true: real-time queue; false: normal queue

	// Done is invoked in interrupt context (a sim event) when the request
	// completes. For a read, data is r.Data, or nil for a timing-only
	// read. If a fault was injected, Err is set and data is nil.
	Done func(r *Request, data []byte)

	// Err carries an injected media error to the completion handler.
	Err error

	// Tag is free for the submitter's bookkeeping.
	Tag any

	// Timing, filled in by the controller.
	Submitted sim.Time
	Started   sim.Time
	Completed sim.Time

	cyl  int
	fdec faultDecision // drawn at start-of-service when a fault model is set
}

// Stats aggregates controller activity.
type Stats struct {
	Served         [2]int   // [normal, realtime]
	BytesMoved     [2]int64 // payload bytes by queue
	BusyTime       sim.Time // time the mechanism was active
	SeekTime       sim.Time // cumulative seek component
	RotTime        sim.Time // cumulative rotational wait component
	TransferTime   sim.Time // cumulative transfer component
	CmdTime        sim.Time // cumulative command overhead
	MaxQueueDepth  [2]int   // per queue
	TotalQueueWait sim.Time // submit-to-start, summed over requests
	FaultLatency   sim.Time // injected service-time inflation (in BusyTime too)
	Canceled       int      // requests abandoned by Cancel
}

// Disk is a simulated disk with a two-queue (real-time / normal) C-SCAN
// controller, as in the paper's modified Real-Time Mach driver.
type Disk struct {
	eng  *sim.Engine
	geo  Geometry
	par  Params
	name string

	sectors map[int64][]byte

	// faultInjector, when set, is consulted at completion time; a non-nil
	// return fails the request with that error. A testing and
	// fault-tolerance facility — the paper's hardware had no error model,
	// but a server that wedges on the first medium error is not one a
	// downstream user can adopt. The structured, seed-deterministic way to
	// inject failures is the FaultModel (faults.go); this hook remains as
	// an escape hatch for hand-crafted scenarios.
	faultInjector func(r *Request) error

	// faults, when set, draws a fault decision for every request at
	// start-of-service (see FaultModel).
	faults *FaultModel

	// fifo disables C-SCAN ordering (requests served in arrival order) —
	// an ablation switch for measuring what the paper's seek-minimizing
	// queue discipline buys.
	fifo bool

	queues        [2][]*Request // index by queueRT / queueNormal
	active        *Request
	activeEnd     sim.Time // completion time of the active request
	activeStalled bool     // active request's completion was withheld (fault)
	arm           int      // current cylinder

	stats Stats
}

const (
	queueNormal = 0
	queueRT     = 1
)

// New creates a disk on the given engine. All sectors initially read as
// zeros.
func New(eng *sim.Engine, name string, g Geometry, p Params) *Disk {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &Disk{eng: eng, geo: g, par: p, name: name, sectors: make(map[int64][]byte)}
}

// Geometry returns the disk geometry.
func (d *Disk) Geometry() Geometry { return d.geo }

// Params returns the timing model.
func (d *Disk) Params() Params { return d.par }

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// ResetStats zeroes the accumulated statistics.
func (d *Disk) ResetStats() { d.stats = Stats{} }

// Arm returns the cylinder the arm is currently positioned over.
func (d *Disk) Arm() int { return d.arm }

// QueueDepth returns the number of requests waiting (not in service) in the
// real-time and normal queues.
func (d *Disk) QueueDepth() (rt, normal int) {
	return len(d.queues[queueRT]), len(d.queues[queueNormal])
}

// Busy reports whether a request is in service.
func (d *Disk) Busy() bool { return d.active != nil }

// ActiveNonRTRemaining returns how much service time remains on an active
// normal-queue request, or zero if the disk is idle or serving a real-time
// request. This is the O_other delay the admission test charges: a
// real-time batch submitted now waits exactly this long before the
// mechanism is free.
func (d *Disk) ActiveNonRTRemaining() sim.Time {
	if d.active == nil || d.active.RealTime {
		return 0
	}
	if rem := d.activeEnd - d.eng.Now(); rem > 0 {
		return rem
	}
	// A stalled request has no completion time; its nominal service may
	// already lie in the past.
	return 0
}

// Submit enqueues a request. If the mechanism is idle it starts service
// immediately. Submit may be called from any engine context.
func (d *Disk) Submit(r *Request) {
	if r.LBA < 0 || r.Count <= 0 || r.LBA+int64(r.Count) > d.geo.TotalSectors() {
		panic(fmt.Sprintf("disk %s: request out of range: lba=%d count=%d", d.name, r.LBA, r.Count))
	}
	if r.Data != nil && len(r.Data) != r.Count*d.geo.SectorSize {
		panic(fmt.Sprintf("disk %s: payload %d bytes for %d sectors", d.name, len(r.Data), r.Count))
	}
	r.Submitted = d.eng.Now()
	r.cyl = d.geo.CylinderOf(r.LBA)
	q := queueNormal
	if r.RealTime {
		q = queueRT
	}
	d.queues[q] = append(d.queues[q], r)
	if len(d.queues[q]) > d.stats.MaxQueueDepth[q] {
		d.stats.MaxQueueDepth[q] = len(d.queues[q])
	}
	if d.active == nil {
		d.startNext()
	}
}

// SetFIFO switches the queues to arrival-order service (ablation; the
// normal discipline is C-SCAN).
func (d *Disk) SetFIFO(fifo bool) { d.fifo = fifo }

// pickCSCAN removes and returns the next request from queue q under C-SCAN:
// the nearest request at or ahead of the arm (increasing cylinders); if none
// is ahead, sweep restarts from the lowest cylinder. Ties go to the earliest
// submission.
func (d *Disk) pickCSCAN(q int) *Request {
	queue := d.queues[q]
	if len(queue) == 0 {
		return nil
	}
	if d.fifo {
		r := queue[0]
		d.queues[q] = queue[1:]
		return r
	}
	bestIdx := -1
	bestAhead := false
	for i, r := range queue {
		ahead := r.cyl >= d.arm
		if bestIdx < 0 {
			bestIdx, bestAhead = i, ahead
			continue
		}
		best := queue[bestIdx]
		switch {
		case ahead && !bestAhead:
			bestIdx, bestAhead = i, true
		case ahead == bestAhead && r.cyl < best.cyl:
			bestIdx, bestAhead = i, ahead
		}
	}
	r := queue[bestIdx]
	d.queues[q] = append(queue[:bestIdx], queue[bestIdx+1:]...)
	return r
}

func (d *Disk) startNext() {
	r := d.pickCSCAN(queueRT)
	q := queueRT
	if r == nil {
		r = d.pickCSCAN(queueNormal)
		q = queueNormal
	}
	if r == nil {
		return
	}
	d.active = r
	r.Started = d.eng.Now()
	d.stats.TotalQueueWait += r.Started - r.Submitted

	seek := d.par.SeekTime(abs(r.cyl - d.arm))
	// Angular position when the seek (plus command overhead) completes.
	readyAt := d.eng.Now() + d.par.CmdOverhead + seek
	rotWait := d.rotationalWait(readyAt, r.LBA)
	transfer := d.transferTime(r.Count)
	service := d.par.CmdOverhead + seek + rotWait + transfer

	if d.faults != nil {
		r.fdec = d.faults.decide(r)
		if r.fdec.extra > 0 {
			service += r.fdec.extra
			d.stats.FaultLatency += r.fdec.extra
		}
	}

	d.stats.CmdTime += d.par.CmdOverhead
	d.stats.SeekTime += seek
	d.stats.RotTime += rotWait
	d.stats.TransferTime += transfer
	d.stats.BusyTime += service
	d.stats.Served[q]++
	d.stats.BytesMoved[q] += int64(r.Count * d.geo.SectorSize)

	d.arm = d.geo.CylinderOf(r.LBA + int64(r.Count) - 1)
	d.activeEnd = d.eng.Now() + service
	if d.eng.Tracing() {
		kind, qn := "read", "normal"
		if r.Write {
			kind = "write"
		}
		if r.RealTime {
			qn = "rt"
		}
		//crasvet:allow hotalloc -- per-request trace line, boxed only while a tracer is installed
		d.eng.Tracef("disk %s: %s %s lba=%d sectors=%d cyl=%d seek=%v rot=%v service=%v",
			d.name, qn, kind, r.LBA, r.Count, r.cyl, seek, rotWait, service)
	}
	if r.fdec.stall {
		// The completion interrupt never fires: the mechanism wedges with
		// this request in service until the host abandons it with Cancel.
		d.activeStalled = true
		d.eng.Tracef("disk %s: request lba=%d stalled (completion withheld)", d.name, r.LBA)
		return
	}
	d.eng.After(service, func() { d.complete(r) })
}

// rotationalWait returns the deterministic delay from the platter's angular
// position at time t to the start of the sector at lba.
func (d *Disk) rotationalWait(t sim.Time, lba int64) sim.Time {
	spt := int64(d.geo.SectorsPerTrack)
	sectorPhase := float64(lba%spt) / float64(spt)
	diskPhase := float64(t%d.par.RotTime) / float64(d.par.RotTime)
	delta := sectorPhase - diskPhase
	if delta < 0 {
		delta++
	}
	return sim.Time(delta * float64(d.par.RotTime))
}

// transferTime returns the media-rate time to move count sectors.
func (d *Disk) transferTime(count int) sim.Time {
	return sim.Time(float64(count) / float64(d.geo.SectorsPerTrack) * float64(d.par.RotTime))
}

// SetFaultInjector installs (or clears, with nil) the fault hook.
func (d *Disk) SetFaultInjector(fn func(r *Request) error) { d.faultInjector = fn }

// Cancel abandons the active request if its completion interrupt was
// withheld (a stalled fault): the mechanism is freed, the request completes
// immediately with ErrAborted, and queued requests resume service. It
// reports whether the request was canceled; a request that is queued, is
// not in service, or whose completion is still coming on its own is left
// alone (false). Cancel is how the server's I/O watchdog keeps a wedged
// drive from wedging the request scheduler.
func (d *Disk) Cancel(r *Request) bool {
	if d.active != r || !d.activeStalled {
		return false
	}
	d.activeStalled = false
	d.active = nil
	r.Err = ErrAborted
	r.Completed = d.eng.Now()
	d.stats.Canceled++
	d.eng.Tracef("disk %s: request lba=%d aborted by host", d.name, r.LBA)
	if r.Done != nil {
		r.Done(r, nil)
	}
	if d.active == nil {
		d.startNext()
	}
	return true
}

// Stalled reports whether the active request's completion was withheld by
// an injected stall fault.
func (d *Disk) Stalled() bool { return d.activeStalled }

func (d *Disk) complete(r *Request) {
	r.Completed = d.eng.Now()
	var data []byte
	if r.fdec.err != nil {
		r.Err = r.fdec.err
	}
	if d.faultInjector != nil {
		if err := d.faultInjector(r); err != nil {
			r.Err = err
		}
	}
	switch {
	case r.Err != nil:
		// Failed request: no data moves.
	case r.Write:
		d.store(r)
	case r.Data != nil:
		d.load(r)
		data = r.Data
	}
	d.active = nil
	// Deliver the interrupt before selecting the next request, as a driver
	// would: the completion handler may enqueue more work that should be
	// eligible immediately.
	if r.Done != nil {
		r.Done(r, data)
	}
	if d.active == nil {
		d.startNext()
	}
}

func (d *Disk) store(r *Request) {
	if r.Data == nil {
		// Sparse write: drop any previous payload so sectors read as zeros.
		for i := 0; i < r.Count; i++ {
			delete(d.sectors, r.LBA+int64(i))
		}
		return
	}
	ss := d.geo.SectorSize
	for i := 0; i < r.Count; i++ {
		src := r.Data[i*ss : (i+1)*ss]
		if allZero(src) {
			// Unwritten sectors read as zeros; storing zero payloads would
			// only bloat memory and images.
			delete(d.sectors, r.LBA+int64(i))
			continue
		}
		buf := make([]byte, ss)
		copy(buf, src)
		d.sectors[r.LBA+int64(i)] = buf
	}
}

// zeroChunk is what allZero compares against, a chunk at a time.
var zeroChunk [4096]byte

func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeroChunk))
		if !bytes.Equal(b[:n], zeroChunk[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// load fills a read's caller-owned buffer in place.
func (d *Disk) load(r *Request) {
	ss := d.geo.SectorSize
	for i := 0; i < r.Count; i++ {
		dst := r.Data[i*ss : (i+1)*ss]
		if sec, ok := d.sectors[r.LBA+int64(i)]; ok {
			copy(dst, sec)
		} else {
			clear(dst)
		}
	}
}

// PeekSector returns a copy of a sector's contents without disk timing —
// the equivalent of inspecting the image offline. Intended for tools and
// tests.
func (d *Disk) PeekSector(lba int64) []byte {
	//crasvet:allow hotalloc -- offline helper, hot-reachable only through the parity write model; the caller owns the returned copy
	out := make([]byte, d.geo.SectorSize)
	if sec, ok := d.sectors[lba]; ok {
		copy(out, sec)
	}
	return out
}

// PokeSector writes a sector without disk timing (offline image edit).
func (d *Disk) PokeSector(lba int64, data []byte) {
	if len(data) != d.geo.SectorSize {
		panic("disk: PokeSector payload size mismatch")
	}
	if allZero(data) {
		delete(d.sectors, lba)
		return
	}
	//crasvet:allow hotalloc -- offline helper, hot-reachable only through the parity rebuild; the store owns the copy
	buf := make([]byte, len(data))
	copy(buf, data)
	d.sectors[lba] = buf
}

// StoredSectors returns how many sectors hold explicit payloads.
func (d *Disk) StoredSectors() int { return len(d.sectors) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
