package disk

import (
	"fmt"

	"repro/internal/sim"
)

// Volume is a striped (RAID-0) array of simulated disks presenting one
// logical LBA space. Logical sectors are laid out in stripe units of
// StripeSectors, rotating round-robin across the members: unit u lives on
// member u mod N, at member row u div N. The paper's server drove a single
// ST32550N; a volume is the "big server" scaling direction its evaluation
// leaves open — aggregate bandwidth grows with spindle count while every
// member keeps its own geometry, timing model, fault model and C-SCAN
// controller.
//
// Two properties the server relies on fall out of the mapping:
//
//   - the mapping is a bijection from logical sectors onto the used member
//     sectors, so an image striped across N disks is exactly the image;
//   - a contiguous logical range projects to at most ONE contiguous run per
//     member (consecutive same-member units land on consecutive member
//     rows), so each stream read costs each member at most one operation.
//
// A single-member volume is the identity: the math degenerates to
// diskLBA = lba, and the full member capacity is exposed, so a one-disk
// volume is bit-for-bit the bare disk.
type Volume struct {
	name   string
	disks  []*Disk
	stripe int64    // sectors per stripe unit
	geo    Geometry // logical geometry (the member geometry for one disk)
	parity bool     // rotating-parity mode (parity.go); false = pure RAID-0
	dead   []bool   // per-member dead flags; only parity volumes may set one
}

// Frag is one member disk's share of a logical sector range: the unit the
// server's per-disk queues, watchdog and retry budget operate on.
type Frag struct {
	Disk  int   // member index
	LBA   int64 // member LBA
	Count int   // sectors
}

// NewVolume builds a striped volume over identical member disks. For a
// single member the volume is the identity mapping over the full disk; for
// more, the logical capacity is the members' capacity rounded down to whole
// stripe rows (N*StripeSectors sectors per row). Degenerate configurations
// — no members, a non-positive stripe unit, mismatched member geometry, or
// a stripe unit larger than a member — are rejected.
func NewVolume(name string, members []*Disk, stripeSectors int64) (*Volume, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("disk: volume %s has no member disks", name)
	}
	if stripeSectors <= 0 {
		return nil, fmt.Errorf("disk: volume %s: stripe unit %d sectors must be positive", name, stripeSectors)
	}
	g0 := members[0].Geometry()
	p0 := members[0].Params()
	for i, d := range members[1:] {
		if d.Geometry() != g0 {
			return nil, fmt.Errorf("disk: volume %s: member %d geometry %+v != member 0 geometry %+v",
				name, i+1, d.Geometry(), g0)
		}
		if d.Params() != p0 {
			return nil, fmt.Errorf("disk: volume %s: member %d timing model differs from member 0", name, i+1)
		}
	}
	v := &Volume{name: name, disks: append([]*Disk(nil), members...), stripe: stripeSectors}
	if len(members) == 1 {
		// Identity: full member capacity, no row truncation. (The striped
		// mapping already degenerates to lba for n=1; keeping the member
		// geometry keeps capacity — member capacity is rarely divisible by
		// the stripe unit.)
		v.geo = g0
		return v, nil
	}
	rows := g0.TotalSectors() / stripeSectors
	if rows == 0 {
		return nil, fmt.Errorf("disk: volume %s: stripe unit %d sectors exceeds member capacity %d",
			name, stripeSectors, g0.TotalSectors())
	}
	if rows > int64(int(^uint(0)>>1)) { // cannot happen with real geometries; guards the int cast
		return nil, fmt.Errorf("disk: volume %s: too many stripe rows", name)
	}
	// The logical geometry is synthesized so TotalSectors() is exactly the
	// usable capacity: one "cylinder" per stripe row, one "head" per member.
	// Only the capacity arithmetic is meaningful — member service timing
	// comes from each member's own real geometry.
	v.geo = Geometry{
		Cylinders:       int(rows),
		Heads:           len(members),
		SectorsPerTrack: int(stripeSectors),
		SectorSize:      g0.SectorSize,
	}
	return v, nil
}

// SingleVolume wraps one disk as an identity volume — the compatibility
// path that lets every single-disk configuration run unchanged through the
// volume-aware server.
func SingleVolume(d *Disk) *Volume {
	return &Volume{name: d.name, disks: []*Disk{d}, stripe: d.geo.TotalSectors(), geo: d.geo}
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// Geometry returns the logical geometry; TotalSectors() is the usable
// striped capacity.
func (v *Volume) Geometry() Geometry { return v.geo }

// NumDisks returns the member count.
func (v *Volume) NumDisks() int { return len(v.disks) }

// Disk returns member i.
func (v *Volume) Disk(i int) *Disk { return v.disks[i] }

// Disks returns the member slice (shared, not a copy — callers must not
// mutate it).
func (v *Volume) Disks() []*Disk { return v.disks }

// StripeSectors returns the stripe unit in sectors.
func (v *Volume) StripeSectors() int64 { return v.stripe }

// StripeBytes returns the stripe unit in bytes.
func (v *Volume) StripeBytes() int64 { return v.stripe * int64(v.geo.SectorSize) }

// locateUnit maps a logical stripe unit to its member disk and member row.
// RAID-0: unit u → member u mod N, row u div N. Parity: the left-symmetric
// rotation (parity.go) — row r = u div (N-1) holds its parity on member
// p = (N-1 - r mod N) mod N and data unit k = u mod (N-1) on (p+1+k) mod N.
func (v *Volume) locateUnit(unit int64) (diskIdx int, row int64) {
	n := int64(len(v.disks))
	if !v.parity {
		return int(unit % n), unit / n
	}
	nd := n - 1
	r := unit / nd
	p := (n - 1 - r%n) % n
	return int((p + 1 + unit%nd) % n), r
}

// Locate maps one logical sector to its member disk and member LBA.
func (v *Volume) Locate(lba int64) (diskIdx int, diskLBA int64) {
	d, row := v.locateUnit(lba / v.stripe)
	return d, row*v.stripe + lba%v.stripe
}

// forEachUnit walks the stripe-unit slices of a logical range in logical
// order, reporting each slice's member placement and its sector offset
// from the start of the range.
func (v *Volume) forEachUnit(lba int64, count int, fn func(diskIdx int, diskLBA int64, sectors int, off int64)) {
	end := lba + int64(count)
	for cur := lba; cur < end; {
		unit := cur / v.stripe
		uend := (unit + 1) * v.stripe
		if uend > end {
			uend = end
		}
		d, row := v.locateUnit(unit)
		fn(d, row*v.stripe+cur%v.stripe, int(uend-cur), cur-lba)
		cur = uend
	}
}

// Fragments splits a logical sector range into per-member fragments,
// ordered by member index. A contiguous logical range yields at most one
// fragment per member: within the range only its first unit can miss a
// prefix and only its last can miss a suffix, and consecutive same-member
// units are member-LBA-contiguous.
func (v *Volume) Fragments(lba int64, count int) []Frag {
	if len(v.disks) == 1 {
		return []Frag{{Disk: 0, LBA: lba, Count: count}}
	}
	if v.parity {
		return v.parityFragments(lba, count)
	}
	type span struct {
		lo, hi int64
		set    bool
	}
	spans := make([]span, len(v.disks))
	v.forEachUnit(lba, count, func(d int, dlba int64, sectors int, _ int64) {
		if !spans[d].set {
			spans[d] = span{lo: dlba, hi: dlba + int64(sectors), set: true}
			return
		}
		if spans[d].hi != dlba {
			panic(fmt.Sprintf("disk: volume %s: non-contiguous fragment on member %d", v.name, d))
		}
		spans[d].hi += int64(sectors)
	})
	frags := make([]Frag, 0, len(v.disks))
	for d, sp := range spans {
		if sp.set {
			frags = append(frags, Frag{Disk: d, LBA: sp.lo, Count: int(sp.hi - sp.lo)})
		}
	}
	return frags
}

// Submit enqueues a logical request, scattering it across the members and
// gathering the completions: the caller's Done fires once, after the last
// fragment completes, with the worst-case member completion time. A read
// de-interleaves the members' data straight into the caller's Data; a read
// with nil Data is timing-only on every member. Err carries the first
// fragment failure. A single-member volume passes the request through
// untouched.
func (v *Volume) Submit(r *Request) {
	if len(v.disks) == 1 {
		v.disks[0].Submit(r)
		return
	}
	if r.LBA < 0 || r.Count <= 0 || r.LBA+int64(r.Count) > v.geo.TotalSectors() {
		panic(fmt.Sprintf("disk: volume %s: request out of range: lba=%d count=%d", v.name, r.LBA, r.Count))
	}
	ss := v.geo.SectorSize
	if r.Data != nil && len(r.Data) != r.Count*ss {
		panic(fmt.Sprintf("disk: volume %s: payload %d bytes for %d sectors", v.name, len(r.Data), r.Count))
	}
	if v.parity {
		if r.Write {
			v.submitParityWrite(r)
		} else {
			v.submitParityRead(r)
		}
		return
	}
	frags := v.Fragments(r.LBA, r.Count)
	r.Submitted = v.disks[0].eng.Now()
	// A buffered read lands in one member-ordered staging buffer: RAID-0
	// fragments partition the range, so they split it exactly.
	var staging []byte
	if !r.Write && r.Data != nil {
		staging = make([]byte, r.Count*ss)
	}
	remaining := len(frags)
	for i := range frags {
		f := frags[i]
		var payload []byte
		if r.Write {
			payload = v.scatterPayload(r, f)
		} else if staging != nil {
			payload = staging[: f.Count*ss : f.Count*ss]
			staging = staging[f.Count*ss:]
		}
		child := &Request{
			LBA: f.LBA, Count: f.Count, Write: r.Write,
			Data:     payload,
			RealTime: r.RealTime,
			Done: func(cr *Request, data []byte) {
				if cr.Err != nil && r.Err == nil {
					r.Err = cr.Err
				}
				if r.Started == 0 || cr.Started < r.Started {
					r.Started = cr.Started
				}
				if cr.Completed > r.Completed {
					r.Completed = cr.Completed
				}
				if data != nil {
					v.gather(r, f, data)
				}
				remaining--
				if remaining > 0 {
					return
				}
				if r.Done != nil {
					var out []byte
					if r.Err == nil && !r.Write {
						out = r.Data
					}
					r.Done(r, out)
				}
			},
		}
		v.disks[f.Disk].Submit(child)
	}
}

// scatterPayload builds one fragment's write payload from the logical
// payload, unit by unit (a fragment's member run interleaves with other
// members' units in logical order). A nil logical payload stays nil — a
// sparse write scatters as sparse writes.
func (v *Volume) scatterPayload(r *Request, f Frag) []byte {
	if !r.Write || r.Data == nil {
		return nil
	}
	ss := v.geo.SectorSize
	out := make([]byte, f.Count*ss)
	v.forEachUnit(r.LBA, r.Count, func(d int, dlba int64, sectors int, off int64) {
		// A parity-mode member can carry several fragments of one range;
		// only the units inside THIS fragment belong to its payload.
		if d != f.Disk || dlba < f.LBA || dlba >= f.LBA+int64(f.Count) {
			return
		}
		copy(out[(dlba-f.LBA)*int64(ss):], r.Data[off*int64(ss):(off+int64(sectors))*int64(ss)])
	})
	return out
}

// gather de-interleaves one fragment's read data into the caller's buffer.
func (v *Volume) gather(r *Request, f Frag, data []byte) {
	ss := v.geo.SectorSize
	v.forEachUnit(r.LBA, r.Count, func(d int, dlba int64, sectors int, off int64) {
		if d != f.Disk {
			return
		}
		copy(r.Data[off*int64(ss):], data[(dlba-f.LBA)*int64(ss):(dlba-f.LBA+int64(sectors))*int64(ss)])
	})
}

// ReadSync submits a logical read into a fresh buffer and blocks the
// calling process until it completes. Mirrors Disk.ReadSync, including the
// loud failure on injected faults — the synchronous path is file-system
// traffic that must not corrupt silently.
func (v *Volume) ReadSync(p *sim.Proc, lba int64, count int, realTime bool) []byte {
	if len(v.disks) == 1 {
		return v.disks[0].ReadSync(p, lba, count, realTime)
	}
	buf := make([]byte, count*v.geo.SectorSize)
	done := false
	v.Submit(&Request{
		LBA: lba, Count: count, Data: buf, RealTime: realTime,
		Done: func(r *Request, _ []byte) {
			if r.Err != nil {
				panic("disk: unhandled injected fault on synchronous volume read")
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

// WriteSync submits a logical write and blocks the calling process until
// every fragment completes.
func (v *Volume) WriteSync(p *sim.Proc, lba int64, count int, data []byte, realTime bool) {
	if len(v.disks) == 1 {
		v.disks[0].WriteSync(p, lba, count, data, realTime)
		return
	}
	done := false
	v.Submit(&Request{
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

// PeekSector returns a copy of a logical sector without disk timing.
func (v *Volume) PeekSector(lba int64) []byte {
	d, dlba := v.Locate(lba)
	return v.disks[d].PeekSector(dlba)
}

// PokeSector writes a logical sector without disk timing (offline image
// edit — mkfs and the movie layout run through this). On a parity volume
// the row's parity sector is updated in the same step: parity_new =
// parity_old XOR data_old XOR data_new, so offline edits keep every row
// XORing to zero.
func (v *Volume) PokeSector(lba int64, data []byte) {
	d, dlba := v.Locate(lba)
	if v.parity {
		p := v.ParityDisk(dlba / v.stripe)
		old := v.disks[d].PeekSector(dlba)
		psec := v.disks[p].PeekSector(dlba)
		for i := range psec {
			psec[i] ^= old[i] ^ data[i]
		}
		v.disks[p].PokeSector(dlba, psec)
	}
	v.disks[d].PokeSector(dlba, data)
}

// Stats returns the members' controller statistics summed; MaxQueueDepth is
// the worst member. The sum hides which member is sick — per-member
// breakdowns come from MemberStats(), which chaos assertions and the parity
// sweep use to name the dead member.
func (v *Volume) Stats() Stats {
	var out Stats
	for _, d := range v.disks {
		s := d.Stats()
		for q := 0; q < 2; q++ {
			out.Served[q] += s.Served[q]
			out.BytesMoved[q] += s.BytesMoved[q]
			if s.MaxQueueDepth[q] > out.MaxQueueDepth[q] {
				out.MaxQueueDepth[q] = s.MaxQueueDepth[q]
			}
		}
		out.BusyTime += s.BusyTime
		out.SeekTime += s.SeekTime
		out.RotTime += s.RotTime
		out.TransferTime += s.TransferTime
		out.CmdTime += s.CmdTime
		out.TotalQueueWait += s.TotalQueueWait
		out.FaultLatency += s.FaultLatency
		out.Canceled += s.Canceled
	}
	return out
}

// Stalled reports whether any member is wedged on a stalled request.
func (v *Volume) Stalled() bool {
	for _, d := range v.disks {
		if d.Stalled() {
			return true
		}
	}
	return false
}

// SetFIFO switches every member's queues to arrival-order service (the
// C-SCAN ablation switch, broadcast).
func (v *Volume) SetFIFO(fifo bool) {
	for _, d := range v.disks {
		d.SetFIFO(fifo)
	}
}
