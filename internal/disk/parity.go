package disk

import (
	"fmt"
	"sort"
)

// Rotating-parity (RAID-5 style) volume mode.
//
// In parity mode each stripe row of N member units holds N-1 data units and
// one parity unit that XORs the row to zero. The parity unit rotates
// left-symmetric: row r's parity lives on member p = (N-1 - r mod N) mod N,
// and the row's data units k = 0..N-2 follow on members (p+1+k) mod N. Two
// consequences the server relies on:
//
//   - consecutive logical units assigned to the same member land on strictly
//     increasing member rows, so a contiguous logical range still projects
//     to at most one contiguous READ per member once the read is allowed to
//     span the member's interleaved parity units (read-and-discard);
//   - any N-1 members determine the Nth: a row's missing unit is the XOR of
//     the surviving N-1 units, so reads touching a dead member are served
//     degraded from the survivors and a replacement member is rebuilt row by
//     row.
//
// Logical capacity is rows × (N-1) × StripeSectors. N=1 and N=2 have no
// useful parity rotation (N=2 is mirroring, a different mode) and are
// rejected — they stay pure RAID-0.

// NewParityVolume builds a rotating-parity volume over N >= 3 identical
// member disks. Degenerate configurations are rejected exactly as for
// NewVolume; fewer than three members additionally so, because one parity
// unit per row needs at least two data units to be distinct from mirroring.
func NewParityVolume(name string, members []*Disk, stripeSectors int64) (*Volume, error) {
	if len(members) < 3 {
		return nil, fmt.Errorf("disk: parity volume %s: need at least 3 members, got %d (N<3 volumes stay pure RAID-0)",
			name, len(members))
	}
	v, err := NewVolume(name, members, stripeSectors)
	if err != nil {
		return nil, err
	}
	v.parity = true
	v.dead = make([]bool, len(members))
	// One "cylinder" per stripe row, one "head" per DATA unit: TotalSectors()
	// is exactly the usable (post-parity) capacity.
	v.geo.Heads = len(members) - 1
	return v, nil
}

// Parity reports whether the volume runs in rotating-parity mode.
func (v *Volume) Parity() bool { return v.parity }

// Rows returns the number of stripe rows (parity and multi-member RAID-0
// volumes; a single-member volume has no row structure).
func (v *Volume) Rows() int64 {
	if len(v.disks) == 1 {
		return 0
	}
	return int64(v.geo.Cylinders)
}

// ParityDisk returns the member holding row r's parity unit.
func (v *Volume) ParityDisk(row int64) int {
	n := int64(len(v.disks))
	return int((n - 1 - row%n) % n)
}

// SetDead marks member i dead (true) or alive (false). Dead members receive
// no traffic: reads touching them are served degraded from the survivors.
// Only parity volumes can survive a dead member, and single parity can
// survive only one — both misuses panic loudly rather than corrupt reads.
func (v *Volume) SetDead(i int, dead bool) {
	if !v.parity {
		//crasvet:allow hotalloc -- panic path
		panic(fmt.Sprintf("disk: volume %s: SetDead on a non-parity volume has no redundancy to fall back on", v.name))
	}
	if dead && !v.dead[i] && v.NumDead() > 0 {
		//crasvet:allow hotalloc -- panic path
		panic(fmt.Sprintf("disk: volume %s: member %d cannot die with member %d already dead (single parity)",
			v.name, i, v.DeadMember()))
	}
	v.dead[i] = dead
}

// Dead reports whether member i is marked dead.
func (v *Volume) Dead(i int) bool { return v.parity && v.dead[i] }

// NumDead returns the number of dead members.
func (v *Volume) NumDead() int {
	n := 0
	for _, d := range v.dead {
		if d {
			n++
		}
	}
	return n
}

// DeadMember returns the dead member's index, or -1 if all are alive.
func (v *Volume) DeadMember() int {
	for i, d := range v.dead {
		if d {
			return i
		}
	}
	return -1
}

// MemberStats returns each member's controller statistics, indexed by
// member. The aggregate view is Stats().
func (v *Volume) MemberStats() []Stats {
	out := make([]Stats, len(v.disks))
	for i, d := range v.disks {
		out[i] = d.Stats()
	}
	return out
}

// parityFragments computes exact data fragments for a parity volume: the
// stripe-unit slices of the range merged per member where member-contiguous.
// Unlike the RAID-0 mapping, the rotation interleaves parity units into each
// member's LBA space, so a member can carry several fragments. Safe for
// writes — parity units in the holes are never touched.
func (v *Volume) parityFragments(lba int64, count int) []Frag {
	//crasvet:allow hotalloc -- mapping scratch bounded by member count; mirrors the baselined RAID-0 Fragments allocation
	last := make([]int, len(v.disks))
	for i := range last {
		last[i] = -1
	}
	//crasvet:allow hotalloc -- same bounded mapping scratch
	frags := make([]Frag, 0, len(v.disks))
	//crasvet:allow hotalloc -- closure is the unit walk itself; one per mapping call, not per admitted stream cycle
	v.forEachUnit(lba, count, func(d int, dlba int64, sectors int, _ int64) {
		if j := last[d]; j >= 0 && frags[j].LBA+int64(frags[j].Count) == dlba {
			frags[j].Count += sectors
			return
		}
		last[d] = len(frags)
		frags = append(frags, Frag{Disk: d, LBA: dlba, Count: sectors}) //crasvet:allow hotalloc -- capacity len(disks) preallocated; a parity member carries few fragments
	})
	//crasvet:allow hotalloc -- sort.Slice closure, one per mapping call
	sort.Slice(frags, func(i, j int) bool {
		if frags[i].Disk != frags[j].Disk {
			return frags[i].Disk < frags[j].Disk
		}
		return frags[i].LBA < frags[j].LBA
	})
	return frags
}

// ReadFragments computes the member READS serving a logical range under the
// volume's current dead set, and the number of stripe units that must be
// XOR-reconstructed because they live on a dead member. For a healthy
// parity volume each member gets at most ONE contiguous fragment spanning
// its interleaved parity units (cheaper to read past a 1-unit hole than to
// pay a second operation); reconstruction widens each survivor's fragment
// to cover the affected rows in full, since rebuilding a dead unit needs
// every survivor's whole unit for those rows. Non-parity volumes delegate
// to Fragments. Results are read-only: writing these fragments would
// clobber parity units.
func (v *Volume) ReadFragments(lba int64, count int) ([]Frag, int) {
	if !v.parity {
		return v.Fragments(lba, count), 0
	}
	type span struct {
		lo, hi int64
		set    bool
	}
	//crasvet:allow hotalloc -- mapping scratch bounded by member count; mirrors the baselined RAID-0 Fragments allocation
	spans := make([]span, len(v.disks))
	//crasvet:allow hotalloc -- one closure per mapping call, not per admitted stream cycle
	extend := func(d int, lo, hi int64) {
		if !spans[d].set {
			spans[d] = span{lo: lo, hi: hi, set: true}
			return
		}
		if lo < spans[d].lo {
			spans[d].lo = lo
		}
		if hi > spans[d].hi {
			spans[d].hi = hi
		}
	}
	recon := 0
	//crasvet:allow hotalloc -- one closure per mapping call, not per admitted stream cycle
	v.forEachUnit(lba, count, func(d int, dlba int64, sectors int, _ int64) {
		if !v.dead[d] {
			extend(d, dlba, dlba+int64(sectors))
			return
		}
		recon++
		row := dlba / v.stripe
		for m := range v.disks {
			if m == d || v.dead[m] {
				continue
			}
			extend(m, row*v.stripe, (row+1)*v.stripe)
		}
	})
	//crasvet:allow hotalloc -- result bounded by member count; mirrors the baselined RAID-0 Fragments allocation
	frags := make([]Frag, 0, len(v.disks))
	for d, sp := range spans {
		if sp.set {
			frags = append(frags, Frag{Disk: d, LBA: sp.lo, Count: int(sp.hi - sp.lo)}) //crasvet:allow hotalloc -- capacity len(disks) preallocated; one span per member
		}
	}
	return frags, recon
}

// ReconstructFrags returns the survivor reads that reconstruct member m's
// units in rows [r0, r1]: every other live member's full units for those
// rows. The server uses this to swap a failed fragment for its XOR
// reconstruction inside the same read barrier. Nil when reconstruction is
// impossible — a non-parity volume, or a second member already missing.
func (v *Volume) ReconstructFrags(m int, r0, r1 int64) []Frag {
	if !v.parity || (v.NumDead() > 0 && !v.dead[m]) {
		return nil
	}
	//crasvet:allow hotalloc -- fault path: runs only when a member read hard-fails; bounded by member count
	frags := make([]Frag, 0, len(v.disks)-1)
	for d := range v.disks {
		if d == m || v.dead[d] {
			continue
		}
		frags = append(frags, Frag{Disk: d, LBA: r0 * v.stripe, Count: int((r1 - r0 + 1) * v.stripe)}) //crasvet:allow hotalloc -- capacity len(disks)-1 preallocated
	}
	return frags
}

// peekRun returns member d's stored bytes for [lba, lba+count) sectors,
// without disk timing.
func (v *Volume) peekRun(d int, lba int64, count int) []byte {
	ss := v.geo.SectorSize
	//crasvet:allow hotalloc -- offline/parity-write arithmetic buffer; one unit per call, owned by the caller
	out := make([]byte, count*ss)
	for i := 0; i < count; i++ {
		copy(out[i*ss:], v.disks[d].PeekSector(lba+int64(i)))
	}
	return out
}

// xorInto XORs src into dst (dst must be at least as long as src).
func xorInto(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// reconstructUnitOffline rebuilds the unit member m holds in the given row
// by XORing every other member's stored unit — no disk timing. This is the
// arithmetic core of degraded reads and rebuild; the timed paths read the
// same bytes through the members' controllers first.
func (v *Volume) reconstructUnitOffline(row int64, m int) []byte {
	//crasvet:allow hotalloc -- XOR accumulator for offline rebuild and the parity write model; one unit per call
	out := make([]byte, int(v.stripe)*v.geo.SectorSize)
	for d := range v.disks {
		if d == m {
			continue
		}
		xorInto(out, v.peekRun(d, row*v.stripe, int(v.stripe)))
	}
	return out
}

// RebuildMember reconstructs member m's entire contents from the survivors,
// offline (no disk timing): the property-test and fsck analogue of the
// server's paced online rebuild. The member's stale sectors are overwritten
// row by row.
func (v *Volume) RebuildMember(m int) {
	if !v.parity {
		//crasvet:allow hotalloc -- panic path
		panic(fmt.Sprintf("disk: volume %s: RebuildMember on a non-parity volume", v.name))
	}
	ss := v.geo.SectorSize
	for row := int64(0); row < v.Rows(); row++ {
		unit := v.reconstructUnitOffline(row, m)
		for i := int64(0); i < v.stripe; i++ {
			v.disks[m].PokeSector(row*v.stripe+i, unit[int(i)*ss:int(i+1)*ss])
		}
	}
}

// VerifyParity checks that every stripe row XORs to zero, returning the
// first inconsistent row, or -1 when the volume is consistent. Offline —
// this is the cmfsck -parity pass.
func (v *Volume) VerifyParity() int64 {
	if !v.parity {
		return -1
	}
	for row := int64(0); row < v.Rows(); row++ {
		acc := make([]byte, int(v.stripe)*v.geo.SectorSize)
		for d := range v.disks {
			xorInto(acc, v.peekRun(d, row*v.stripe, int(v.stripe)))
		}
		if !allZero(acc) {
			return row
		}
	}
	return -1
}

// submitParityRead scatters a logical read over the survivors and gathers
// the completions into the caller's Data, XOR-reconstructing any units held
// by a dead member. A read with nil Data is timing-only on every survivor.
// The caller's Done fires once, after the last fragment, exactly as for
// RAID-0.
func (v *Volume) submitParityRead(r *Request) {
	frags, _ := v.ReadFragments(r.LBA, r.Count)
	r.Submitted = v.disks[0].eng.Now()
	ss := v.geo.SectorSize
	memberFrag := make([]Frag, len(v.disks))
	memberBuf := make([][]byte, len(v.disks))
	remaining := len(frags)
	for i := range frags {
		f := frags[i]
		memberFrag[f.Disk] = f
		child := &Request{
			LBA: f.LBA, Count: f.Count, RealTime: r.RealTime,
			Done: func(cr *Request, _ []byte) {
				if cr.Err != nil && r.Err == nil {
					r.Err = cr.Err
				}
				if r.Started == 0 || cr.Started < r.Started {
					r.Started = cr.Started
				}
				if cr.Completed > r.Completed {
					r.Completed = cr.Completed
				}
				remaining--
				if remaining > 0 {
					return
				}
				if r.Err == nil && r.Data != nil {
					v.gatherParity(r, memberFrag, memberBuf)
				}
				if r.Done != nil {
					var out []byte
					if r.Err == nil {
						out = r.Data
					}
					r.Done(r, out)
				}
			},
		}
		if r.Data != nil {
			child.Data = make([]byte, f.Count*ss)
			memberBuf[f.Disk] = child.Data
		}
		v.disks[f.Disk].Submit(child)
	}
}

// gatherParity de-interleaves the member reads into the caller's buffer,
// XORing the survivors' row units together wherever the unit's home member
// is dead.
func (v *Volume) gatherParity(r *Request, memberFrag []Frag, memberBuf [][]byte) {
	ss := int64(v.geo.SectorSize)
	v.forEachUnit(r.LBA, r.Count, func(d int, dlba int64, sectors int, off int64) {
		dst := r.Data[off*ss : (off+int64(sectors))*ss]
		if !v.dead[d] {
			src := memberBuf[d]
			lo := (dlba - memberFrag[d].LBA) * ss
			copy(dst, src[lo:lo+int64(sectors)*ss])
			return
		}
		clear(dst) // the caller's buffer may hold anything
		for m := range v.disks {
			if m == d || v.dead[m] {
				continue
			}
			lo := (dlba - memberFrag[m].LBA) * ss
			xorInto(dst, memberBuf[m][lo:lo+int64(sectors)*ss])
		}
	})
}

// overlayWrite applies the slice of a logical write covering stripe unit u
// onto the unit's current content. A nil payload overlays zeros (sparse
// writes store zeros).
func (v *Volume) overlayWrite(cur []byte, u int64, r *Request) {
	ss := int64(v.geo.SectorSize)
	lo, hi := u*v.stripe, (u+1)*v.stripe
	if s := r.LBA; s > lo {
		lo = s
	}
	if e := r.LBA + int64(r.Count); e < hi {
		hi = e
	}
	if lo >= hi {
		return
	}
	dst := cur[(lo-u*v.stripe)*ss : (hi-u*v.stripe)*ss]
	if r.Data == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, r.Data[(lo-r.LBA)*ss:(hi-r.LBA)*ss])
}

// parityRowAfterWrite computes row's parity unit content as it must be once
// the logical write lands: the XOR of every data unit's post-write bytes. A
// dead data member's current content is itself reconstructed from the
// survivors first, so a degraded write is carried entirely by the parity
// update. The reads here are offline (Peek) — the model charges the
// read-modify-write as the parity unit write riding the same row access.
func (v *Volume) parityRowAfterWrite(row int64, r *Request) []byte {
	nd := int64(len(v.disks) - 1)
	parity := make([]byte, int(v.stripe)*v.geo.SectorSize)
	for k := int64(0); k < nd; k++ {
		u := row*nd + k
		m, _ := v.locateUnit(u)
		var cur []byte
		if v.dead[m] {
			cur = v.reconstructUnitOffline(row, m)
		} else {
			cur = v.peekRun(m, row*v.stripe, int(v.stripe))
		}
		v.overlayWrite(cur, u, r)
		xorInto(parity, cur)
	}
	return parity
}

// submitParityWrite scatters a logical write into exact per-member data
// fragments (never touching parity holes) plus one full parity-unit write
// per affected row. Fragments on a dead member are dropped — the parity
// update alone carries their bytes until rebuild restores the member.
func (v *Volume) submitParityWrite(r *Request) {
	r.Submitted = v.disks[0].eng.Now()
	nd := int64(len(v.disks) - 1)
	type child struct {
		disk int
		req  *Request
	}
	var children []child
	for _, f := range v.Fragments(r.LBA, r.Count) {
		if v.dead[f.Disk] {
			continue
		}
		children = append(children, child{f.Disk, &Request{
			LBA: f.LBA, Count: f.Count, Write: true,
			Data:     v.scatterPayload(r, f),
			RealTime: r.RealTime,
		}})
	}
	firstRow := (r.LBA / v.stripe) / nd
	lastRow := ((r.LBA + int64(r.Count) - 1) / v.stripe) / nd
	for row := firstRow; row <= lastRow; row++ {
		p := v.ParityDisk(row)
		if v.dead[p] {
			continue
		}
		payload := v.parityRowAfterWrite(row, r)
		if allZero(payload) {
			payload = nil // sparse parity write: store stays sparse
		}
		children = append(children, child{p, &Request{
			LBA: row * v.stripe, Count: int(v.stripe), Write: true,
			Data:     payload,
			RealTime: r.RealTime,
		}})
	}
	remaining := len(children)
	done := func(cr *Request, _ []byte) {
		if cr.Err != nil && r.Err == nil {
			r.Err = cr.Err
		}
		if r.Started == 0 || cr.Started < r.Started {
			r.Started = cr.Started
		}
		if cr.Completed > r.Completed {
			r.Completed = cr.Completed
		}
		remaining--
		if remaining > 0 {
			return
		}
		if r.Done != nil {
			r.Done(r, nil)
		}
	}
	for _, c := range children {
		c.req.Done = done
		v.disks[c.disk].Submit(c.req)
	}
}
