package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// AdmissionParams are the measured disk parameters of Table 4 that the
// admission test consumes. Times follow the paper's symbols.
type AdmissionParams struct {
	D        float64  // disk transfer rate, bytes/second
	TseekMax sim.Time // full-stroke seek (linear approximation at Ncyl)
	TseekMin sim.Time // linear-approximation intercept
	Trot     sim.Time // rotational latency (one revolution)
	Tcmd     sim.Time // command overhead per operation
	Bother   int64    // largest block of other (non-real-time) disk traffic
}

// StreamParams are the per-stream inputs to the admission test: the data
// rate R_i (worst case over an interval window, which for CBR equals the
// average) and the chunk size C_i (the largest single chunk, the slack term
// in A_i = T*R_i + C_i).
//
// A cache-backed stream (a follower served from the interval cache, see
// icache.go) is charged differently: it performs no disk operations — it
// contributes nothing to R_total, C_total or the per-operation overheads of
// RequiredInterval — and its buffer charge is CacheBytes, the pinned
// interval between it and its leader (gap × rate), instead of the
// double-buffer B_i. This asymmetry is the capacity win of interval
// caching: a trailing viewer of an already-playing movie costs RAM
// proportional to how far it trails, and no disk time at all.
// On a striped volume the per-interval fetch A_i = T*R_i + C_i splits
// across member disks, and the admission test runs per member (see
// AdmitVolume): the stream charges each member disk in Disks one operation
// and DiskBytes of transfer per interval. Both fields zero means the
// single-disk reading — the stream puts its whole A_i on every disk it
// touches (which on one disk is the paper's formula (1) exactly).
type StreamParams struct {
	Rate  float64 // bytes/second
	Chunk int64   // bytes

	Cached     bool  // served from the interval cache, not the disk
	CacheBytes int64 // pinned-interval charge while Cached

	// A multicast fan-out member (multicast.go) is charged like a cache
	// follower but from the group's feed: zero disk operations, and
	// FanoutBytes — the join lag plus a double-buffer window at its rate —
	// instead of B_i. FanoutBytes is never smaller than B_i, so a member
	// falling back to a plain stream never increases the admission memory.
	Multicast   bool  // served by group fan-out, not the disk
	FanoutBytes int64 // fan-out buffer charge while Multicast

	// A paused stream (vcr.go) is the fourth resource class: its buffers
	// stay pinned — it keeps its full memory charge so Resume never has to
	// fight for the RAM its buffered runway already occupies — but its
	// clock is frozen and it fetches nothing, so it contributes no rate, no
	// chunk slack and no per-operation overhead to the interval's disk
	// schedule. Resume is a fresh admission at the unpaused charge.
	Paused bool

	Disks     []int // member disks the stream loads (nil = all members)
	DiskBytes int64 // per-member bytes per interval when striped (0 = full A_i)
}

// MeasureAdmissionParams derives Table 4 from the disk, the way the authors
// ran microbenchmarks against theirs: the transfer rate from the geometry's
// media rate, rotational latency from the spindle speed, command overhead
// from the controller, and the seek parameters from a least-squares linear
// fit of the measured seek curve (Figure 12's "Approx." line).
func MeasureAdmissionParams(d *disk.Disk, bother int64) AdmissionParams {
	g, p := d.Geometry(), d.Params()
	alpha, beta := fitSeekCurve(d)
	return AdmissionParams{
		D:        disk.MediaRate(g, p),
		TseekMin: sim.Time(beta * float64(time.Second)),
		TseekMax: sim.Time((beta + alpha*float64(g.Cylinders)) * float64(time.Second)),
		Trot:     p.RotTime,
		Tcmd:     p.CmdOverhead,
		Bother:   bother,
	}
}

// fitSeekCurve samples the seek curve across the stroke and returns the
// least-squares line seconds(x) = alpha*x + beta.
func fitSeekCurve(d *disk.Disk) (alpha, beta float64) {
	ncyl := d.Geometry().Cylinders
	step := ncyl / 64
	if step < 1 {
		step = 1
	}
	var n, sx, sy, sxx, sxy float64
	for x := 1; x < ncyl; x += step {
		y := d.ProbeSeek(0, x).Seconds()
		fx := float64(x)
		n++
		sx += fx
		sy += y
		sxx += fx * fx
		sxy += fx * y
	}
	alpha = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	beta = (sy - alpha*sx) / n
	if beta < 0 {
		beta = 0
	}
	return alpha, beta
}

// OtherOverhead is O_other, formula (9): the worst-case delay one
// non-real-time request already in service imposes on the batch.
func (a AdmissionParams) OtherOverhead() sim.Time {
	return a.Tcmd + a.TseekMax + a.Trot + sim.Time(float64(a.Bother)/a.D*float64(time.Second))
}

// SeekOverhead is O_seek, formulas (11)-(12): the C-SCAN bound on total
// seek time for N streams sorted in cylinder order, assuming the worst-case
// full-stroke spread.
func (a AdmissionParams) SeekOverhead(n int) sim.Time {
	switch {
	case n <= 0:
		return 0
	case n == 1:
		return a.TseekMax
	default:
		return 2*a.TseekMax + sim.Time(n-2)*a.TseekMin
	}
}

// TotalOverhead is O_total, formulas (14)-(15): O_other + O_seek + O_rot +
// O_cmd for n streams.
func (a AdmissionParams) TotalOverhead(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return a.OtherOverhead() + a.SeekOverhead(n) + sim.Time(n)*a.Trot + sim.Time(n)*a.Tcmd
}

// RequiredInterval is formula (1) solved for the minimum interval time:
// T >= (O_total*D + C_total) / (D - R_total). It returns an error when the
// aggregate rate meets or exceeds the disk rate (no interval suffices).
func (a AdmissionParams) RequiredInterval(streams []StreamParams) (sim.Time, error) {
	// Cache-backed, fan-out-member and paused streams read nothing from the
	// disk: they contribute no rate, no chunk slack and no per-operation
	// overhead to the batch.
	n := 0
	var rTotal float64
	var cTotal int64
	for _, s := range streams {
		if !s.loadsDisk() {
			continue
		}
		n++
		rTotal += s.Rate
		cTotal += s.Chunk
	}
	return a.requiredInterval(n, rTotal, cTotal)
}

// requiredInterval is RequiredInterval over a batch already summed: n
// operations moving rTotal bytes/second plus cTotal bytes of chunk slack.
func (a AdmissionParams) requiredInterval(n int, rTotal float64, cTotal int64) (sim.Time, error) {
	if n == 0 {
		return 0, nil
	}
	if rTotal >= a.D {
		//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission, never in a clean cycle
		return 0, fmt.Errorf("core: aggregate rate %.0f B/s >= disk rate %.0f B/s", rTotal, a.D)
	}
	oTotal := a.TotalOverhead(n).Seconds()
	t := (oTotal*a.D + float64(cTotal)) / (a.D - rTotal)
	return sim.Time(t * float64(time.Second)), nil
}

// loadsDisk reports whether the stream reads from the disk at all: cache
// followers, fan-out members and paused streams do not.
func (s StreamParams) loadsDisk() bool { return !s.Cached && !s.Multicast && !s.Paused }

// BufferPerStream is B_i, formula (7): 2*(T*R_i + C_i) — double-buffering
// one interval's worth of data.
func BufferPerStream(t sim.Time, s StreamParams) int64 {
	return 2 * (int64(t.Seconds()*s.Rate) + s.Chunk)
}

// TotalBuffer is B_total, formula (8), extended for the interval cache and
// multicast fan-out: a cache-backed stream charges its pinned interval
// (CacheBytes) and a fan-out member its group reservation (FanoutBytes)
// instead of the double-buffer B_i.
func TotalBuffer(t sim.Time, streams []StreamParams) int64 {
	var total int64
	for _, s := range streams {
		if s.Cached {
			total += s.CacheBytes
			continue
		}
		if s.Multicast {
			total += s.FanoutBytes
			continue
		}
		total += BufferPerStream(t, s)
	}
	return total
}

// AdmissionError reports why a stream was rejected.
type AdmissionError struct {
	NeedInterval sim.Time // minimum interval the set would require (0 if rate infeasible at any T)
	Interval     sim.Time // the server's configured interval
	NeedBuffer   int64
	Budget       int64
	Reason       string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("cras: admission failed: %s (need T>=%v have %v; need %d buffer bytes have %d)",
		e.Reason, e.NeedInterval, e.Interval, e.NeedBuffer, e.Budget)
}

// Admit runs the paper's admission test for the full stream set (existing
// plus candidate) against a configured interval time and buffer budget.
func (a AdmissionParams) Admit(t sim.Time, budget int64, streams []StreamParams) error {
	need, err := a.RequiredInterval(streams)
	if err != nil {
		//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission
		return &AdmissionError{Interval: t, NeedBuffer: TotalBuffer(t, streams), Budget: budget, Reason: err.Error()}
	}
	buf := TotalBuffer(t, streams)
	if need > t {
		//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission
		return &AdmissionError{NeedInterval: need, Interval: t, NeedBuffer: buf, Budget: budget,
			Reason: "interval time too short for stream set"}
	}
	if buf > budget {
		//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission
		return &AdmissionError{NeedInterval: need, Interval: t, NeedBuffer: buf, Budget: budget,
			Reason: "buffer memory exhausted"}
	}
	return nil
}

// perDiskLoad bounds one member disk's share of an interval fetch of a
// bytes striped round-robin in stripeBytes units across n disks. The fetch
// window is not stripe-aligned, so it can touch one extra unit
// (ceil(a/stripe)+1), and the units spread across members as evenly as the
// rotation allows — the worst member serves ceil(units/n) of them.
func perDiskLoad(a, stripeBytes int64, n int) int64 {
	if n <= 1 || stripeBytes <= 0 {
		return a
	}
	units := (a+stripeBytes-1)/stripeBytes + 1
	perDisk := (units + int64(n) - 1) / int64(n)
	return perDisk * stripeBytes
}

// StripedParams converts a stream's admission parameters to their striped
// form for a volume of ndisks members with the given stripe unit: the
// stream touches every member (its fetch window rotates over all of them
// across its lifetime) and charges each the worst per-member share of its
// interval fetch. On a single disk it is the identity.
func StripedParams(t sim.Time, par StreamParams, ndisks int, stripeBytes int64) StreamParams {
	if ndisks <= 1 {
		return par
	}
	a := int64(t.Seconds()*par.Rate) + par.Chunk
	par.Disks = nil // all members
	par.DiskBytes = perDiskLoad(a, stripeBytes, ndisks)
	return par
}

// VolumeShape describes the volume the admission test runs against: member
// count, redundancy mode, and how many members are currently dead. The
// plain RAID-0 shape is {Disks: n} — AdmitVolume's historical signature.
type VolumeShape struct {
	Disks       int
	Parity      bool
	Dead        int   // dead members (0 or 1 under single parity)
	StripeBytes int64 // stripe unit (parity load model only)
}

// parityDiskLoad bounds one live member's byte share of an interval fetch
// of a bytes on an n-member rotating-parity volume. The scheduler issues at
// most ONE coalesced read per member per logical fetch, spanning the
// member's interleaved parity units (read-and-discard — cheaper than a
// second operation), so the bound is in stripe rows:
//
//	units = ceil(a/stripe) + 1          (window misalignment)
//	rows  = ceil(units/(n-1))           (n-1 data units per row)
//
// Healthy, the worst member's span holds its ceil(units/n) data share, up
// to one unit of boundary slack, and the parity holes the span crosses
// (one per n rows) — never more than the full row span. Degraded, every
// survivor reads the affected rows IN FULL, because reconstructing the
// dead member's units needs each survivor's whole unit for those rows:
// ceil-fragments on all n-1 survivors, the honest cost of losing a member.
func parityDiskLoad(a, stripeBytes int64, n int, degraded bool) int64 {
	if stripeBytes <= 0 {
		return a
	}
	units := (a+stripeBytes-1)/stripeBytes + 1
	rows := (units + int64(n-1) - 1) / int64(n-1)
	if degraded {
		return (rows + 1) * stripeBytes
	}
	load := ((units+int64(n)-1)/int64(n) + 1 + (rows+int64(n)-1)/int64(n)) * stripeBytes
	if max := (rows + 1) * stripeBytes; load > max {
		load = max
	}
	return load
}

// shapeLoad is the per-interval byte load the stream puts on one live
// member of the shaped volume. Parity recomputes from the rate so the same
// stream can be re-evaluated healthy or degraded; RAID-0 keeps the
// per-member share frozen at open time (DiskBytes).
func (s StreamParams) shapeLoad(t sim.Time, shape VolumeShape) int64 {
	if shape.Parity {
		a := int64(t.Seconds()*s.Rate) + s.Chunk
		return parityDiskLoad(a, shape.StripeBytes, shape.Disks, shape.Dead > 0)
	}
	return s.diskLoad(t)
}

// VolumeParams converts a stream's admission parameters for the given
// volume shape: plain striping via StripedParams, rotating parity via the
// coalesced parity load (charged healthy at open time — a member death
// re-evaluates the open set at the degraded charge). Identity on one disk.
func VolumeParams(t sim.Time, par StreamParams, shape VolumeShape) StreamParams {
	if !shape.Parity {
		return StripedParams(t, par, shape.Disks, shape.StripeBytes)
	}
	a := int64(t.Seconds()*par.Rate) + par.Chunk
	par.Disks = nil // the rotation touches every member
	par.DiskBytes = parityDiskLoad(a, shape.StripeBytes, shape.Disks, false)
	return par
}

// diskLoad is the per-interval byte load the stream puts on one member it
// touches.
func (s StreamParams) diskLoad(t sim.Time) int64 {
	if s.DiskBytes > 0 {
		return s.DiskBytes
	}
	return int64(t.Seconds()*s.Rate) + s.Chunk
}

// AdmitVolume runs the admission test over an ndisks-member striped
// volume: formulas (1)-(2) are evaluated per member disk against the
// operations and bytes assigned to that member, and the set is admitted
// iff every member has capacity (the interval batch barriers on the
// slowest member) and the aggregate buffer fits. With one member it is
// exactly Admit — the single-disk test, byte for byte.
func (a AdmissionParams) AdmitVolume(t sim.Time, budget int64, ndisks int, streams []StreamParams) error {
	return a.AdmitShape(t, budget, VolumeShape{Disks: ndisks}, streams)
}

// AdmitShape is AdmitVolume generalized to a shaped volume. For a parity
// shape each stream's per-member load is recomputed from its rate at the
// shape's current health — honest degraded charging: one dead member turns
// every logical fetch into full-row reads on all survivors, and the same
// open set that passed the healthy test can fail the degraded one (the
// caller then walks over-committed streams down the health ladder). Dead
// members receive no traffic and are skipped. A non-parity shape is
// AdmitVolume byte for byte.
//
// Each member sees, per interval, one operation per stream that touches it,
// moving that stream's per-member byte share: a fixed-bytes load, so formula
// (1) for the member has zero rate and the shares as chunk slack. One pass
// over the set sums the operations and bytes of the streams that touch
// every member (Disks nil) once, and those of streams pinned to members per
// member; the members are then checked in order against their sums.
func (a AdmissionParams) AdmitShape(t sim.Time, budget int64, shape VolumeShape, streams []StreamParams) error {
	ndisks := shape.Disks
	if ndisks <= 0 {
		//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission
		return &AdmissionError{Interval: t, Budget: budget,
			Reason: fmt.Sprintf("volume has %d disks", ndisks)} //crasvet:allow hotalloc -- same rejection path
	}
	if ndisks == 1 {
		return a.Admit(t, budget, streams)
	}
	checked := ndisks
	if shape.Parity && shape.Dead > 0 {
		// One member is dead; which one does not matter to the bound —
		// every survivor carries the same full-row degraded load, so the
		// test runs over the live "slots" rather than member identities.
		checked = max(ndisks-shape.Dead, 0)
	}
	var all memberLoad
	var pinned []memberLoad // per checked member, made on the first pinned stream
	for _, s := range streams {
		if !s.loadsDisk() {
			continue
		}
		load := s.shapeLoad(t, shape)
		if s.Disks == nil {
			all.add(load)
			continue
		}
		if pinned == nil {
			pinned = make([]memberLoad, checked) //crasvet:allow hotalloc -- only for streams pinned to members, which no server path builds
		}
		for i, d := range s.Disks {
			if d < 0 || d >= checked || slices.Contains(s.Disks[:i], d) {
				continue // not a checked member, or already charged
			}
			pinned[d].add(load)
		}
	}
	for d := 0; d < checked; d++ {
		m := all
		if pinned != nil {
			m.ops += pinned[d].ops
			m.bytes += pinned[d].bytes
		}
		need, err := a.requiredInterval(m.ops, 0, m.bytes)
		if err != nil {
			//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission
			return &AdmissionError{Interval: t, NeedBuffer: TotalBuffer(t, streams), Budget: budget,
				Reason: fmt.Sprintf("disk %d: %v", d, err)} //crasvet:allow hotalloc -- same rejection path
		}
		if need > t {
			//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission
			return &AdmissionError{NeedInterval: need, Interval: t,
				NeedBuffer: TotalBuffer(t, streams), Budget: budget,
				Reason: fmt.Sprintf("interval time too short for stream set (disk %d)", d)} //crasvet:allow hotalloc -- same rejection path
		}
	}
	if buf := TotalBuffer(t, streams); buf > budget {
		//crasvet:allow hotalloc -- rejection path; hot-reachable only via the once-per-member-death re-admission
		return &AdmissionError{Interval: t, NeedBuffer: buf, Budget: budget,
			Reason: "buffer memory exhausted"}
	}
	return nil
}

// memberLoad is one member disk's per-interval batch in AdmitShape: its
// operation count and the bytes they move.
type memberLoad struct {
	ops   int
	bytes int64
}

func (m *memberLoad) add(bytes int64) {
	m.ops++
	m.bytes += bytes
}

// CalculatedIOTime is the admission model's estimate of the disk time one
// interval's batch needs: O_total(N) + bytes/D. Figures 8 and 9 compare
// the actual per-interval disk time against this value.
func (a AdmissionParams) CalculatedIOTime(n int, bytes int64) sim.Time {
	return a.TotalOverhead(n) + sim.Time(float64(bytes)/a.D*float64(time.Second))
}

// OpCost bounds the disk time one extra operation of the given size can
// consume: worst-case seek, one rotation, command overhead, and the media
// transfer. The recovery engine charges this against the interval's spare
// time before re-issuing a failed read.
func (a AdmissionParams) OpCost(bytes int64) sim.Time {
	return a.TseekMax + a.Trot + a.Tcmd + sim.Time(float64(bytes)/a.D*float64(time.Second))
}

// MaxStreams returns how many identical streams the configuration admits —
// the capacity curves quoted in the evaluation (e.g. >25 MPEG1 streams at a
// 3 s initial delay).
func (a AdmissionParams) MaxStreams(t sim.Time, budget int64, s StreamParams) int {
	var set []StreamParams
	for {
		set = append(set, s)
		if a.Admit(t, budget, set) != nil {
			return len(set) - 1
		}
		if len(set) > 10000 {
			return len(set)
		}
	}
}
