package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
)

// propVolume builds a seeded random volume configuration: 1–8 members on a
// small identical geometry, a stripe unit between one sector and a few
// tracks.
func propVolume(t *testing.T, e *sim.Engine, rng *rand.Rand) *Volume {
	t.Helper()
	g := Geometry{
		Cylinders:       2 + rng.Intn(30),
		Heads:           1 + rng.Intn(4),
		SectorsPerTrack: 4 + rng.Intn(60),
		SectorSize:      512,
	}
	_, p := ST32550N()
	n := []int{1, 2, 3, 4, 8}[rng.Intn(5)]
	members := make([]*Disk, n)
	for i := range members {
		members[i] = New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	maxStripe := g.TotalSectors()
	if maxStripe > 256 {
		maxStripe = 256
	}
	stripe := 1 + rng.Int63n(maxStripe)
	v, err := NewVolume("vol0", members, stripe)
	if err != nil {
		t.Fatalf("NewVolume(n=%d, stripe=%d, geo=%+v): %v", n, stripe, g, err)
	}
	return v
}

// TestStripeProperties is the seeded property suite for the stripe mapping.
// The default seed is fixed (reproducible forever); CI also rotates it per
// commit via STRIPE_PROP_SEED so the corpus grows with history. Invariants:
//
//  1. Locate is a bijection into per-member bounds: every logical sector
//     maps to exactly one (disk, LBA) inside its member, and no two logical
//     sectors collide.
//  2. Fragments partitions any logical range: at most one fragment per
//     member, fragment sector counts sum to the range, and the fragment
//     sectors are exactly the Locate images of the range — so the per-disk
//     op lists partition the single-disk op list.
//  3. The mapping is seed-stable: rebuilding the same configuration yields
//     an identical fragment digest.
//  4. Data round-trips: bytes written through the volume (offline pokes and
//     timed WriteSync) read back identical through the volume, and every
//     byte is physically resident on exactly the member Locate names.
func TestStripeProperties(t *testing.T) {
	seed := int64(20260805)
	if env := os.Getenv("STRIPE_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad STRIPE_PROP_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("stripe property seed %d (override with STRIPE_PROP_SEED)", seed)
	root := rand.New(rand.NewSource(seed))

	for cfg := 0; cfg < 30; cfg++ {
		rng := rand.New(rand.NewSource(root.Int63()))
		e := sim.NewEngine(rng.Int63())
		v := propVolume(t, e, rng)
		total := v.Geometry().TotalSectors()
		n := v.NumDisks()
		memberTotal := v.Disk(0).Geometry().TotalSectors()

		// (1) Locate bijection over the whole logical space (capacities here
		// are a few thousand sectors, so exhaustive is cheap).
		seen := make(map[[2]int64]int64, total)
		for lba := int64(0); lba < total; lba++ {
			d, dlba := v.Locate(lba)
			if d < 0 || d >= n {
				t.Fatalf("cfg %d: Locate(%d) → member %d of %d", cfg, lba, d, n)
			}
			if dlba < 0 || dlba >= memberTotal {
				t.Fatalf("cfg %d: Locate(%d) → member LBA %d outside [0,%d)", cfg, lba, dlba, memberTotal)
			}
			key := [2]int64{int64(d), dlba}
			if prev, dup := seen[key]; dup {
				t.Fatalf("cfg %d: logical %d and %d both map to member %d LBA %d", cfg, prev, lba, d, dlba)
			}
			seen[key] = lba
		}

		// (2) Fragments partitions random ranges, consistently with Locate.
		for trial := 0; trial < 50; trial++ {
			count := 1 + int(rng.Int63n(total))
			lba := rng.Int63n(total - int64(count) + 1)
			frags := v.Fragments(lba, count)
			perDisk := make(map[int]Frag)
			sum := 0
			for _, f := range frags {
				if _, dup := perDisk[f.Disk]; dup {
					t.Fatalf("cfg %d: range [%d,%d) produced two fragments on member %d",
						cfg, lba, lba+int64(count), f.Disk)
				}
				perDisk[f.Disk] = f
				sum += f.Count
			}
			if sum != count {
				t.Fatalf("cfg %d: range [%d,%d) fragments cover %d sectors, want %d",
					cfg, lba, lba+int64(count), sum, count)
			}
			// Every logical sector of the range falls inside its member's
			// fragment — and fragment sizes leave no room for anything else,
			// so the fragments are exactly the Locate image of the range.
			for s := lba; s < lba+int64(count); s++ {
				d, dlba := v.Locate(s)
				f, ok := perDisk[d]
				if !ok || dlba < f.LBA || dlba >= f.LBA+int64(f.Count) {
					t.Fatalf("cfg %d: logical %d locates to member %d LBA %d, outside its fragment %+v",
						cfg, s, d, dlba, f)
				}
			}
		}

		// (3) Seed-stability: the same member set and stripe unit rebuilds to
		// an identical mapping — Locate depends only on the configuration,
		// never on engine state or draw order.
		v2, err := NewVolume("vol0", v.Disks(), v.StripeSectors())
		if err != nil {
			t.Fatalf("cfg %d: rebuild failed: %v", cfg, err)
		}
		for lba := int64(0); lba < total; lba++ {
			d1, l1 := v.Locate(lba)
			d2, l2 := v2.Locate(lba)
			if d1 != d2 || l1 != l2 {
				t.Fatalf("cfg %d: mapping unstable at %d: (%d,%d) vs (%d,%d)", cfg, lba, d1, l1, d2, l2)
			}
		}

		// (4) Offline data round-trip: poke random sectors through the
		// volume, peek them back, and confirm physical placement matches
		// Locate on the member itself.
		for trial := 0; trial < 20; trial++ {
			lba := rng.Int63n(total)
			data := make([]byte, v.Geometry().SectorSize)
			rng.Read(data)
			v.PokeSector(lba, data)
			if got := v.PeekSector(lba); string(got) != string(data) {
				t.Fatalf("cfg %d: PokeSector/PeekSector mismatch at %d", cfg, lba)
			}
			d, dlba := v.Locate(lba)
			if got := v.Disk(d).PeekSector(dlba); string(got) != string(data) {
				t.Fatalf("cfg %d: sector %d not resident at member %d LBA %d", cfg, lba, d, dlba)
			}
		}
	}
}

// TestStripeTimedIO round-trips data through the volume's timed I/O path
// (Submit scatter/gather under the event loop), including ranges chosen to
// span several stripe units and wrap the member rotation.
func TestStripeTimedIO(t *testing.T) {
	seed := int64(20260805)
	if env := os.Getenv("STRIPE_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad STRIPE_PROP_SEED %q: %v", env, err)
		}
		seed = v
	}
	root := rand.New(rand.NewSource(seed))
	for cfg := 0; cfg < 8; cfg++ {
		rng := rand.New(rand.NewSource(root.Int63()))
		e := sim.NewEngine(rng.Int63())
		v := propVolume(t, e, rng)
		total := v.Geometry().TotalSectors()
		ss := v.Geometry().SectorSize

		type op struct {
			lba   int64
			count int
			data  []byte
		}
		var ops []op
		for i := 0; i < 6; i++ {
			count := 1 + int(rng.Int63n(min64(total, 4*v.StripeSectors()+3)))
			lba := rng.Int63n(total - int64(count) + 1)
			data := make([]byte, count*ss)
			rng.Read(data)
			ops = append(ops, op{lba, count, data})
		}
		e.Spawn("io", func(p *sim.Proc) {
			for _, o := range ops {
				v.WriteSync(p, o.lba, o.count, o.data, false)
			}
			for _, o := range ops[len(ops)-1:] { // last write wins where ops overlap
				got := v.ReadSync(p, o.lba, o.count, false)
				if string(got) != string(o.data) {
					t.Errorf("cfg %d: timed read-back mismatch at lba %d count %d", cfg, o.lba, o.count)
				}
			}
			for i := 0; i < 4; i++ {
				count := 1 + int(rng.Int63n(min64(total, 4*v.StripeSectors()+3)))
				checkCallerRead(t, p, v, rng.Int63n(total-int64(count)+1), count, fmt.Sprintf("cfg %d", cfg))
			}
		})
		e.RunUntil(sim.Time(10 * time.Minute))
	}
}

// checkCallerRead reads a logical range through Volume.Submit into a
// caller buffer full of garbage and checks that Done hands back that same
// buffer holding exactly the bytes PeekSector reports, sector by sector.
func checkCallerRead(t *testing.T, p *sim.Proc, v *Volume, lba int64, count int, what string) {
	t.Helper()
	ss := v.Geometry().SectorSize
	buf := bytes.Repeat([]byte{0xA5}, count*ss)
	var got []byte
	done := false
	v.Submit(&Request{LBA: lba, Count: count, Data: buf, Done: func(r *Request, data []byte) {
		if r.Err != nil {
			t.Errorf("%s: caller-buffer read at lba %d failed: %v", what, lba, r.Err)
		}
		got, done = data, true
		p.Unblock()
	}})
	for !done {
		p.Block("test:read")
	}
	if len(got) != len(buf) || &got[0] != &buf[0] {
		t.Fatalf("%s: Done did not get the caller's buffer", what)
	}
	for i := 0; i < count; i++ {
		if !bytes.Equal(buf[i*ss:(i+1)*ss], v.PeekSector(lba+int64(i))) {
			t.Errorf("%s: caller-buffer read at lba %d count %d: sector %d differs from PeekSector", what, lba, count, i)
			return
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestVolumeDegenerate covers the rejection paths: empty member sets,
// non-positive or oversized stripe units, and mismatched member hardware.
func TestVolumeDegenerate(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := ST32550N()
	g.Cylinders = 4
	mk := func(name string) *Disk { return New(e, name, g, p) }

	if _, err := NewVolume("v", nil, 64); err == nil {
		t.Fatal("volume with no members accepted")
	}
	if _, err := NewVolume("v", []*Disk{mk("a")}, 0); err == nil {
		t.Fatal("zero stripe unit accepted")
	}
	if _, err := NewVolume("v", []*Disk{mk("a")}, -8); err == nil {
		t.Fatal("negative stripe unit accepted")
	}
	if _, err := NewVolume("v", []*Disk{mk("a"), mk("b")}, g.TotalSectors()+1); err == nil {
		t.Fatal("stripe unit beyond member capacity accepted")
	}
	g2 := g
	g2.Cylinders = 5
	if _, err := NewVolume("v", []*Disk{mk("a"), New(e, "b", g2, p)}, 64); err == nil {
		t.Fatal("mismatched member geometry accepted")
	}
	p2 := p
	p2.CmdOverhead *= 2
	if _, err := NewVolume("v", []*Disk{mk("a"), New(e, "b", g, p2)}, 64); err == nil {
		t.Fatal("mismatched member timing accepted")
	}

	// A one-member volume is the identity over the full member: no row
	// truncation even when the stripe unit does not divide the capacity.
	d := mk("solo")
	v, err := NewVolume("v", []*Disk{d}, 7)
	if err != nil {
		t.Fatalf("single-member volume: %v", err)
	}
	if v.Geometry() != d.Geometry() {
		t.Fatalf("single-member volume geometry %+v != member %+v", v.Geometry(), d.Geometry())
	}
	if di, dlba := v.Locate(12345 % g.TotalSectors()); di != 0 || dlba != 12345%g.TotalSectors() {
		t.Fatalf("single-member Locate not identity: (%d,%d)", di, dlba)
	}
	sv := SingleVolume(d)
	if sv.Geometry() != d.Geometry() || sv.NumDisks() != 1 {
		t.Fatal("SingleVolume not the identity wrapper")
	}

	// Multi-member capacity truncates to whole stripe rows.
	members := []*Disk{mk("a"), mk("b"), mk("c")}
	stripe := int64(96) // does not divide the member capacity evenly
	mv, err := NewVolume("v", members, stripe)
	if err != nil {
		t.Fatalf("3-member volume: %v", err)
	}
	rows := g.TotalSectors() / stripe
	if got, want := mv.Geometry().TotalSectors(), rows*3*stripe; got != want {
		t.Fatalf("striped capacity %d, want %d (whole rows)", got, want)
	}
	// Last logical sector still maps inside its member.
	d3, l3 := mv.Locate(mv.Geometry().TotalSectors() - 1)
	if d3 < 0 || d3 > 2 || l3 >= g.TotalSectors() {
		t.Fatalf("last sector maps outside members: (%d,%d)", d3, l3)
	}
}
