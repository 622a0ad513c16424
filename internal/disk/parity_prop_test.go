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

func parityPropSeed(t *testing.T) int64 {
	seed := int64(20260807)
	if env := os.Getenv("PARITY_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad PARITY_PROP_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("parity property seed %d (override with PARITY_PROP_SEED)", seed)
	return seed
}

// propParityVolume builds a seeded random rotating-parity configuration:
// 3–8 members on a small identical geometry.
func propParityVolume(t *testing.T, e *sim.Engine, rng *rand.Rand) *Volume {
	t.Helper()
	g := Geometry{
		Cylinders:       2 + rng.Intn(20),
		Heads:           1 + rng.Intn(4),
		SectorsPerTrack: 4 + rng.Intn(40),
		SectorSize:      512,
	}
	_, p := ST32550N()
	n := []int{3, 4, 5, 8}[rng.Intn(4)]
	members := make([]*Disk, n)
	for i := range members {
		members[i] = New(e, fmt.Sprintf("sd%d", i), g, p)
	}
	maxStripe := g.TotalSectors()
	if maxStripe > 96 {
		maxStripe = 96
	}
	stripe := 1 + rng.Int63n(maxStripe)
	v, err := NewParityVolume("pvol0", members, stripe)
	if err != nil {
		t.Fatalf("NewParityVolume(n=%d, stripe=%d, geo=%+v): %v", n, stripe, g, err)
	}
	return v
}

// TestParityProperties is the seeded property suite for the rotating-parity
// mapping. Fixed default seed; CI rotates it per commit via
// PARITY_PROP_SEED. Invariants:
//
//  1. Rotation bijection: Locate is injective into member bounds, each
//     stripe row places exactly one unit (data or parity) on every member,
//     and over any N consecutive rows each member holds parity exactly once.
//  2. Fragments partitions any logical range into per-member data fragments
//     that never touch a parity unit; ReadFragments covers the range with at
//     most one fragment per member.
//  3. Offline parity maintenance: after arbitrary PokeSector traffic every
//     row XORs to zero (VerifyParity == -1).
//  4. Any-(N-1)-of-N reconstruction: with any single member marked dead,
//     timed reads return bytes identical to the healthy content while the
//     dead member receives zero requests.
//  5. Rebuild: wiping a member and rebuilding it from the survivors
//     reproduces the member bit-for-bit.
//  6. Corrupting one unit behind the volume's back is caught by VerifyParity
//     naming that row.
func TestParityProperties(t *testing.T) {
	root := rand.New(rand.NewSource(parityPropSeed(t)))

	for cfg := 0; cfg < 12; cfg++ {
		rng := rand.New(rand.NewSource(root.Int63()))
		e := sim.NewEngine(rng.Int63())
		v := propParityVolume(t, e, rng)
		total := v.Geometry().TotalSectors()
		ss := v.Geometry().SectorSize
		n := v.NumDisks()
		rows := v.Rows()
		stripe := v.StripeSectors()
		memberTotal := v.Disk(0).Geometry().TotalSectors()

		if want := rows * int64(n-1) * stripe; total != want {
			t.Fatalf("cfg %d: capacity %d, want rows(%d) × (N-1)(%d) × stripe(%d) = %d",
				cfg, total, rows, n-1, stripe, want)
		}

		// (1) Rotation bijection + per-row coverage + parity fairness.
		seen := make(map[[2]int64]int64, total)
		for lba := int64(0); lba < total; lba++ {
			d, dlba := v.Locate(lba)
			if d < 0 || d >= n || dlba < 0 || dlba >= memberTotal {
				t.Fatalf("cfg %d: Locate(%d) → (%d,%d) out of bounds", cfg, lba, d, dlba)
			}
			if p := v.ParityDisk(dlba / stripe); p == d {
				t.Fatalf("cfg %d: logical %d lands on member %d, the parity member of row %d",
					cfg, lba, d, dlba/stripe)
			}
			key := [2]int64{int64(d), dlba}
			if prev, dup := seen[key]; dup {
				t.Fatalf("cfg %d: logical %d and %d both map to member %d LBA %d", cfg, prev, lba, d, dlba)
			}
			seen[key] = lba
		}
		for row := int64(0); row < rows; row++ {
			used := make([]bool, n)
			used[v.ParityDisk(row)] = true
			for k := int64(0); k < int64(n-1); k++ {
				d, r := v.locateUnit(row*int64(n-1) + k)
				if r != row {
					t.Fatalf("cfg %d: unit %d of row %d locates to row %d", cfg, k, row, r)
				}
				if used[d] {
					t.Fatalf("cfg %d: row %d places two units on member %d", cfg, row, d)
				}
				used[d] = true
			}
		}
		if rows >= int64(n) {
			counts := make([]int, n)
			for row := int64(0); row < int64(n); row++ {
				counts[v.ParityDisk(row)]++
			}
			for d, c := range counts {
				if c != 1 {
					t.Fatalf("cfg %d: member %d holds parity for %d of %d consecutive rows", cfg, d, c, n)
				}
			}
		}

		// (2) Fragments / ReadFragments shape over random ranges.
		for trial := 0; trial < 40; trial++ {
			count := 1 + int(rng.Int63n(total))
			lba := rng.Int63n(total - int64(count) + 1)
			frags := v.Fragments(lba, count)
			sum := 0
			for _, f := range frags {
				sum += f.Count
				for s := f.LBA; s < f.LBA+int64(f.Count); s++ {
					if v.ParityDisk(s/stripe) == f.Disk {
						t.Fatalf("cfg %d: data fragment %+v covers parity sector %d of member %d",
							cfg, f, s, f.Disk)
					}
				}
			}
			if sum != count {
				t.Fatalf("cfg %d: range [%d,%d) fragments cover %d sectors, want %d",
					cfg, lba, lba+int64(count), sum, count)
			}
			rfrags, recon := v.ReadFragments(lba, count)
			if recon != 0 {
				t.Fatalf("cfg %d: healthy ReadFragments reports %d reconstructions", cfg, recon)
			}
			perDisk := make(map[int]Frag)
			for _, f := range rfrags {
				if _, dup := perDisk[f.Disk]; dup {
					t.Fatalf("cfg %d: ReadFragments produced two fragments on member %d", cfg, f.Disk)
				}
				perDisk[f.Disk] = f
			}
			for s := lba; s < lba+int64(count); s++ {
				d, dlba := v.Locate(s)
				f, ok := perDisk[d]
				if !ok || dlba < f.LBA || dlba >= f.LBA+int64(f.Count) {
					t.Fatalf("cfg %d: logical %d (member %d LBA %d) outside its read fragment %+v",
						cfg, s, d, dlba, f)
				}
			}
		}

		// (3) Fill with offline pokes; parity must hold everywhere.
		shadow := make([]byte, total*int64(ss))
		for trial := 0; trial < 200; trial++ {
			lba := rng.Int63n(total)
			data := make([]byte, ss)
			rng.Read(data)
			v.PokeSector(lba, data)
			copy(shadow[lba*int64(ss):], data)
		}
		if row := v.VerifyParity(); row != -1 {
			t.Fatalf("cfg %d: parity broken at row %d after offline pokes", cfg, row)
		}

		// (4) Any single member dead: timed degraded reads are byte-identical
		// and the dead member sees no traffic.
		for m := 0; m < n; m++ {
			v.SetDead(m, true)
			before := v.Disk(m).Stats()
			type rd struct {
				lba   int64
				count int
			}
			var reads []rd
			for trial := 0; trial < 6; trial++ {
				count := 1 + int(rng.Int63n(min64(total, 4*stripe+3)))
				reads = append(reads, rd{rng.Int63n(total - int64(count) + 1), count})
			}
			e.Spawn(fmt.Sprintf("degraded-%d", m), func(p *sim.Proc) {
				for _, o := range reads {
					got := v.ReadSync(p, o.lba, o.count, false)
					want := shadow[o.lba*int64(ss) : (o.lba+int64(o.count))*int64(ss)]
					if !bytes.Equal(got, want) {
						t.Errorf("cfg %d: degraded read (dead member %d) mismatch at lba %d count %d",
							cfg, m, o.lba, o.count)
					}
				}
			})
			e.Run()
			after := v.Disk(m).Stats()
			if after.Served != before.Served {
				t.Fatalf("cfg %d: dead member %d served requests: %v → %v", cfg, m, before.Served, after.Served)
			}
			v.SetDead(m, false)
		}

		// (5) Rebuild reproduces a wiped member bit-for-bit.
		m := rng.Intn(n)
		want := v.peekRun(m, 0, int(rows*stripe))
		garbage := make([]byte, ss)
		for s := int64(0); s < rows*stripe; s++ {
			rng.Read(garbage)
			v.Disk(m).PokeSector(s, garbage)
		}
		v.SetDead(m, true)
		v.RebuildMember(m)
		v.SetDead(m, false)
		if got := v.peekRun(m, 0, int(rows*stripe)); !bytes.Equal(got, want) {
			t.Fatalf("cfg %d: rebuild of member %d not bit-identical", cfg, m)
		}
		if row := v.VerifyParity(); row != -1 {
			t.Fatalf("cfg %d: parity broken at row %d after rebuild", cfg, row)
		}

		// (6) A corrupted unit is caught, naming the row.
		badRow := rng.Int63n(rows)
		badDisk := rng.Intn(n)
		badLBA := badRow*stripe + rng.Int63n(stripe)
		orig := v.Disk(badDisk).PeekSector(badLBA)
		flip := append([]byte(nil), orig...)
		flip[rng.Intn(ss)] ^= 0x5a
		v.Disk(badDisk).PokeSector(badLBA, flip)
		if row := v.VerifyParity(); row != badRow {
			t.Fatalf("cfg %d: VerifyParity found row %d, want corrupted row %d", cfg, row, badRow)
		}
		v.Disk(badDisk).PokeSector(badLBA, orig)
		if row := v.VerifyParity(); row != -1 {
			t.Fatalf("cfg %d: parity still broken at row %d after repair", cfg, row)
		}
	}
}

// TestParityTimedIO round-trips data through the timed scatter/gather path:
// healthy writes, degraded reads, degraded writes (carried by the parity
// update alone), and a rebuild that makes the degraded writes durable on
// the replaced member.
func TestParityTimedIO(t *testing.T) {
	root := rand.New(rand.NewSource(parityPropSeed(t)))
	for cfg := 0; cfg < 6; cfg++ {
		rng := rand.New(rand.NewSource(root.Int63()))
		e := sim.NewEngine(rng.Int63())
		v := propParityVolume(t, e, rng)
		total := v.Geometry().TotalSectors()
		ss := v.Geometry().SectorSize
		m := rng.Intn(v.NumDisks())

		type op struct {
			lba   int64
			count int
			data  []byte
		}
		mkops := func(k int) []op {
			var ops []op
			for i := 0; i < k; i++ {
				count := 1 + int(rng.Int63n(min64(total, 4*v.StripeSectors()+3)))
				lba := rng.Int63n(total - int64(count) + 1)
				data := make([]byte, count*ss)
				rng.Read(data)
				ops = append(ops, op{lba, count, data})
			}
			return ops
		}
		healthy := mkops(5)
		degraded := mkops(3)

		e.Spawn("io", func(p *sim.Proc) {
			for _, o := range healthy {
				v.WriteSync(p, o.lba, o.count, o.data, false)
			}
			check := func(o op, phase string) {
				if got := v.ReadSync(p, o.lba, o.count, false); !bytes.Equal(got, o.data) {
					t.Errorf("cfg %d: %s read-back mismatch at lba %d count %d", cfg, phase, o.lba, o.count)
				}
			}
			check(healthy[len(healthy)-1], "healthy")
			last := healthy[len(healthy)-1]
			checkCallerRead(t, p, v, last.lba, last.count, fmt.Sprintf("cfg %d healthy", cfg))

			v.SetDead(m, true)
			check(healthy[len(healthy)-1], "degraded")
			// The dead member's sectors still hold the truth offline, so
			// PeekSector checks the XOR reconstruction.
			checkCallerRead(t, p, v, last.lba, last.count, fmt.Sprintf("cfg %d degraded", cfg))
			checkCallerRead(t, p, v, 0, int(min64(total, 4*v.StripeSectors())), fmt.Sprintf("cfg %d degraded", cfg))
			for _, o := range degraded {
				v.WriteSync(p, o.lba, o.count, o.data, false)
			}
			check(degraded[len(degraded)-1], "degraded-after-write")

			v.RebuildMember(m)
			v.SetDead(m, false)
			check(degraded[len(degraded)-1], "rebuilt")
			if row := v.VerifyParity(); row != -1 {
				t.Errorf("cfg %d: parity broken at row %d after timed traffic + rebuild", cfg, row)
			}
		})
		e.RunUntil(sim.Time(10 * time.Minute))
	}
}

// TestParityDegenerate covers rejections and mode gating: fewer than three
// members stay pure RAID-0 (a clear error, not silent fallback), SetDead is
// refused off-parity and for a second member, and VerifyParity/Rows answer
// benignly for non-parity volumes.
func TestParityDegenerate(t *testing.T) {
	e := sim.NewEngine(1)
	g, p := ST32550N()
	g.Cylinders = 4
	mk := func(name string) *Disk { return New(e, name, g, p) }

	if _, err := NewParityVolume("v", []*Disk{mk("a")}, 64); err == nil {
		t.Fatal("1-member parity volume accepted")
	}
	if _, err := NewParityVolume("v", []*Disk{mk("a"), mk("b")}, 64); err == nil {
		t.Fatal("2-member parity volume accepted")
	}
	if _, err := NewParityVolume("v", []*Disk{mk("a"), mk("b"), mk("c")}, g.TotalSectors()+1); err == nil {
		t.Fatal("oversized stripe unit accepted")
	}

	rv, err := NewVolume("v", []*Disk{mk("a"), mk("b"), mk("c")}, 64)
	if err != nil {
		t.Fatalf("RAID-0 volume: %v", err)
	}
	if rv.Parity() {
		t.Fatal("NewVolume produced a parity volume")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetDead on a RAID-0 volume did not panic")
			}
		}()
		rv.SetDead(0, true)
	}()

	pv, err := NewParityVolume("pv", []*Disk{mk("x"), mk("y"), mk("z")}, 64)
	if err != nil {
		t.Fatalf("parity volume: %v", err)
	}
	if !pv.Parity() || pv.NumDead() != 0 || pv.DeadMember() != -1 {
		t.Fatal("fresh parity volume not healthy")
	}
	pv.SetDead(1, true)
	if !pv.Dead(1) || pv.NumDead() != 1 || pv.DeadMember() != 1 {
		t.Fatal("SetDead(1) not reflected")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second dead member did not panic")
			}
		}()
		pv.SetDead(2, true)
	}()
	pv.SetDead(1, false)
	if pv.NumDead() != 0 {
		t.Fatal("revived member still counted dead")
	}
	if ms := pv.MemberStats(); len(ms) != 3 {
		t.Fatalf("MemberStats returned %d entries, want 3", len(ms))
	}
}
