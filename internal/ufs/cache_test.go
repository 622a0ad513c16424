package ufs

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestFailedPrefetchFallsBackToSyncRead fails the first read-ahead run a
// sequential reader triggers. The reader is then waiting on one of the
// run's blocks: it must be woken, read the block itself, and see the
// bytes that were written.
func TestFailedPrefetchFallsBackToSyncRead(t *testing.T) {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	want := make([]byte, 32*BlockSize)
	for i := range want {
		want[i] = byte(i*31 + i/BlockSize)
	}
	failed := 0
	e.Spawn("test", func(p *sim.Proc) {
		fs, err := Mount(p, d, Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		f, _ := fs.Create(p, "/f")
		f.WriteAt(p, want, 0)
		fs.Sync(p)

		// A fresh mount has a cold cache, so every read below goes to disk.
		fs, err = Mount(p, d, Options{})
		if err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		f, err = fs.Open(p, "/f")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		d.SetFaultInjector(func(r *disk.Request) error {
			if !r.Write && !r.RealTime && r.Count > SectorsPerBlock && failed == 0 {
				failed++
				return errors.New("injected media error")
			}
			return nil
		})
		got := make([]byte, len(want))
		for off := 0; off < len(got); off += BlockSize {
			if _, err := f.ReadAt(p, got[off:off+BlockSize], int64(off)); err != nil {
				t.Errorf("ReadAt %d: %v", off, err)
				return
			}
		}
		if !bytes.Equal(got, want) {
			t.Error("read-back after a failed prefetch differs from the written data")
		}
	})
	e.Run()
	if failed != 1 {
		t.Fatalf("%d prefetch runs failed, want exactly 1", failed)
	}
}

// offlineDev serves the cache's synchronous I/O offline, without blocking,
// so the only asynchrony a cache sees is its own prefetches. After each
// asynchronous read completes it reports the read's submission index.
type offlineDev struct {
	*disk.Disk
	submitted int
	completed func(idx int)
}

func (o *offlineDev) ReadSync(_ *sim.Proc, lba int64, count int, _ bool) []byte {
	var out []byte
	for i := 0; i < count; i++ {
		out = append(out, o.PeekSector(lba+int64(i))...)
	}
	return out
}

func (o *offlineDev) WriteSync(_ *sim.Proc, lba int64, count int, data []byte, _ bool) {
	ss := o.Geometry().SectorSize
	for i := 0; i < count; i++ {
		o.PokeSector(lba+int64(i), data[i*ss:(i+1)*ss])
	}
}

func (o *offlineDev) Submit(r *disk.Request) {
	idx, done := o.submitted, r.Done
	o.submitted++
	r.Done = func(r *disk.Request, data []byte) {
		done(r, data)
		o.completed(idx)
	}
	o.Disk.Submit(r)
}

// refEntry and refCache are the reference model: resident blocks in
// recency order, least recent first. A miss evicts the least recently
// touched non-pending block, writing it back if dirty; a prefetch evicts
// clean non-pending blocks only, and shrinks its run when that is not
// enough.
type refEntry struct {
	blk            int64
	pending, dirty bool
}

type refCache struct {
	capacity   int
	order      []*refEntry
	runs       [][]*refEntry // prefetch runs by submission index
	writebacks int64
}

func (m *refCache) find(blk int64) int {
	return slices.IndexFunc(m.order, func(e *refEntry) bool { return e.blk == blk })
}

func (m *refCache) evict(cleanOnly bool) bool {
	for i, e := range m.order {
		if e.pending || (cleanOnly && e.dirty) {
			continue
		}
		if e.dirty {
			m.writebacks++
		}
		m.order = slices.Delete(m.order, i, i+1)
		return true
	}
	return false
}

// get models Get and GetZero: a hit moves the block to the back, a miss
// evicts to make room and appends it.
func (m *refCache) get(blk int64) {
	if i := m.find(blk); i >= 0 {
		e := m.order[i]
		m.order = append(slices.Delete(m.order, i, i+1), e)
		return
	}
	for len(m.order)+1 > m.capacity && m.evict(false) {
	}
	m.order = append(m.order, &refEntry{blk: blk})
}

func (m *refCache) prefetch(blk int64, count int) {
	for i := 0; i < count; {
		for i < count && m.find(blk+int64(i)) >= 0 {
			i++
		}
		start := i
		for i < count && m.find(blk+int64(i)) < 0 {
			i++
		}
		if i == start {
			return
		}
		n := i - start
		for len(m.order)+n > m.capacity && m.evict(true) {
		}
		if room := m.capacity - len(m.order); n > room {
			n = room
		}
		if n <= 0 {
			continue
		}
		var run []*refEntry
		for j := 0; j < n; j++ {
			e := &refEntry{blk: blk + int64(start+j), pending: true}
			m.order = append(m.order, e)
			run = append(run, e)
		}
		m.runs = append(m.runs, run)
	}
}

func (m *refCache) invalidate(blk int64) {
	if i := m.find(blk); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

// TestCacheEvictionOrderMatchesModel drives a small cache with a seeded mix
// of Get, GetZero, MarkDirty, Prefetch, Invalidate and idle time, and
// checks the resident set and the write-back count against the reference
// model after every step.
func TestCacheEvictionOrderMatchesModel(t *testing.T) {
	const (
		capacity = 6
		blocks   = 20
		steps    = 600
	)
	for seed := int64(1); seed <= 5; seed++ {
		e := sim.NewEngine(seed)
		m := &refCache{capacity: capacity}
		dev := &offlineDev{Disk: smallDisk(e)}
		dev.completed = func(idx int) {
			if idx >= len(m.runs) {
				t.Errorf("seed %d: prefetch %d completed, the model issued only %d", seed, idx, len(m.runs))
				return
			}
			for _, re := range m.runs[idx] {
				re.pending = false
			}
		}
		c := NewCache(dev, capacity)
		rng := rand.New(rand.NewSource(seed))
		e.Spawn("test", func(p *sim.Proc) {
			for step := 0; step < steps; step++ {
				blk := rng.Int63n(blocks)
				op := rng.Intn(6)
				switch op {
				case 0:
					c.Get(p, blk)
					m.get(blk)
				case 1:
					c.GetZero(p, blk)
					m.get(blk)
				case 2:
					if len(m.order) == 0 {
						continue
					}
					re := m.order[rng.Intn(len(m.order))]
					c.MarkDirty(re.blk)
					re.dirty = true
				case 3:
					count := 1 + rng.Intn(4)
					c.Prefetch(blk, count)
					m.prefetch(blk, count)
				case 4:
					c.Invalidate(blk)
					m.invalidate(blk)
				case 5:
					p.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
				}
				if c.Len() != len(m.order) || c.Writebacks != m.writebacks {
					t.Errorf("seed %d step %d (op %d): cache holds %d blocks with %d write-backs, model %d and %d",
						seed, step, op, c.Len(), c.Writebacks, len(m.order), m.writebacks)
					return
				}
				for b := int64(0); b < blocks; b++ {
					if c.Contains(b) != (m.find(b) >= 0) {
						t.Errorf("seed %d step %d (op %d): block %d resident=%v, model says %v",
							seed, step, op, b, c.Contains(b), m.find(b) >= 0)
						return
					}
				}
			}
		})
		e.Run()
		if c.Writebacks == 0 || c.Prefetches == 0 {
			t.Errorf("seed %d: the mix never wrote back (%d) or prefetched (%d)", seed, c.Writebacks, c.Prefetches)
		}
	}
}
