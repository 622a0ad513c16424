package disk

import "repro/internal/sim"

// ReadSync submits a read into a fresh buffer and blocks the calling
// process until it completes, returning the sector contents. The realTime
// flag selects the driver queue. The synchronous helpers do not
// participate in fault injection; an injected error here panics, so tests
// targeting the FS path fail loudly rather than corrupting silently.
func (d *Disk) ReadSync(p *sim.Proc, lba int64, count int, realTime bool) []byte {
	buf := make([]byte, count*d.geo.SectorSize)
	done := false
	d.Submit(&Request{
		LBA: lba, Count: count, Data: buf, RealTime: realTime,
		Done: func(r *Request, _ []byte) {
			if r.Err != nil {
				panic("disk: unhandled injected fault on synchronous read")
			}
			done = true
			p.Unblock()
		},
	})
	for !done {
		p.Block("disk:read")
	}
	return buf
}

// WriteSync submits a write and blocks the calling process until it
// completes. A nil payload performs a sparse write (sectors read back as
// zeros).
func (d *Disk) WriteSync(p *sim.Proc, lba int64, count int, data []byte, realTime bool) {
	done := false
	d.Submit(&Request{
		LBA: lba, Count: count, Write: true, Data: data, RealTime: realTime,
		Done: func(r *Request, _ []byte) {
			done = true
			p.Unblock()
		},
	})
	for !done {
		p.Block("disk:write")
	}
}

// ProbeSeek reports the modeled arm-movement time between two cylinders.
// This stands in for the paper's seek-time microbenchmark (Figure 12), which
// isolated the seek component of service time with a dedicated timer board.
func (d *Disk) ProbeSeek(fromCyl, toCyl int) sim.Time {
	return d.par.SeekTime(abs(toCyl - fromCyl))
}
