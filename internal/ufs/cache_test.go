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

// offlineDev serves the cache's synchronous write-backs offline, without
// blocking, so the only asynchrony a cache sees is its own reads. After
// each read completes it reports the read's submission index.
type offlineDev struct {
	*disk.Disk
	submitted int
	completed func(idx int)
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
// enough. Every disk read — a prefetch run, or the one block a Get miss
// waits on — is a run, numbered in submission order.
type refEntry struct {
	blk            int64
	pending, dirty bool
}

type refCache struct {
	capacity   int
	order      []*refEntry
	runs       [][]*refEntry // disk reads by submission index
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

// get models Get (read) and GetZero: a hit moves the block to the back, a
// miss evicts to make room and appends it, pending on its own read for Get.
// Call it before the cache call it models, so the read is in the model
// when it completes.
func (m *refCache) get(blk int64, read bool) {
	if i := m.find(blk); i >= 0 {
		e := m.order[i]
		m.order = append(slices.Delete(m.order, i, i+1), e)
		return
	}
	for len(m.order)+1 > m.capacity && m.evict(false) {
	}
	e := &refEntry{blk: blk, pending: read}
	m.order = append(m.order, e)
	if read {
		m.runs = append(m.runs, []*refEntry{e})
	}
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
				t.Errorf("seed %d: read %d completed, the model issued only %d", seed, idx, len(m.runs))
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
					m.get(blk, true)
					c.Get(p, blk)
				case 1:
					m.get(blk, false)
					c.GetZero(p, blk)
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

// frames returns the first byte of every frame the cache holds, resident
// or free, so a test can tell recycled frames from new ones.
func (c *Cache) frames() map[*byte]bool {
	out := make(map[*byte]bool)
	for _, e := range c.entries {
		out[&e.data[0]] = true
	}
	for _, e := range c.free {
		out[&e.data[0]] = true
	}
	return out
}

// A prefetch that the fault injector fails drops its entries and returns
// their frames to the free list; a reader that waited on one of its blocks
// wakes, fetches the block itself into a recycled frame, and sees its
// bytes.
func TestFailedPrefetchKeepsFrames(t *testing.T) {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	block := func(blk int64) []byte {
		return bytes.Repeat([]byte{byte(blk)}, BlockSize)
	}
	for blk := int64(10); blk < 14; blk++ {
		for s := 0; s < SectorsPerBlock; s++ {
			ss := d.Geometry().SectorSize
			d.PokeSector(blk*SectorsPerBlock+int64(s), block(blk)[s*ss:(s+1)*ss])
		}
	}
	c := NewCache(d, 4)
	failed := 0
	e.Spawn("reader", func(p *sim.Proc) {
		for blk := int64(0); blk < 4; blk++ {
			c.Get(p, blk)
		}
		before := c.frames()
		if len(before) != 4 {
			t.Errorf("a full 4-block cache holds %d frames", len(before))
			return
		}
		d.SetFaultInjector(func(r *disk.Request) error {
			if !r.Write && r.Count > SectorsPerBlock {
				failed++
				return errors.New("injected media error")
			}
			return nil
		})
		c.Prefetch(10, 4)
		misses := c.Misses
		if got := c.Get(p, 11); !bytes.Equal(got, block(11)) {
			t.Error("the block a failed prefetch dropped reads back wrong")
		}
		if c.Misses != misses+1 {
			t.Errorf("the waiter did not fetch the block itself: %d misses, want %d", c.Misses, misses+1)
		}
		if c.Len() != 1 {
			t.Errorf("%d blocks resident after the failed run, want only the fetched one", c.Len())
		}
		after := c.frames()
		if len(after) != len(before) {
			t.Errorf("the cache holds %d frames after the failed run, had %d", len(after), len(before))
		}
		for f := range after {
			if !before[f] {
				t.Error("a frame was made anew instead of recycled")
			}
		}
	})
	e.Run()
	if failed != 1 {
		t.Fatalf("%d prefetch runs failed, want exactly 1", failed)
	}
}

// With the minimum 4-block cache every bmap, inode and group access evicts
// and recycles frames. Two files written interleaved, with blocks behind
// direct, indirect and double-indirect pointers and writes that straddle
// blocks, must read back intact — before and after a remount — and leave
// fsck clean.
func TestTinyCacheFileTree(t *testing.T) {
	const (
		ind  = NDirect                // first block behind the indirect pointer
		dind = NDirect + PtrsPerBlock // first block behind the double-indirect pointer
	)
	fbns := []int64{0, 5, NDirect - 1, ind, ind + 100, dind - 1, dind, dind + PtrsPerBlock + 7, dind + 3*PtrsPerBlock - 1}
	pattern := func(file int, fbn int64) []byte {
		b := make([]byte, BlockSize)
		for i := range b {
			b[i] = byte(int64(file)*131 + fbn*7 + int64(i)/97)
		}
		return b
	}
	// A straddling write covers the last half of one block and the first
	// half of the next.
	straddle := func(file int) (int64, []byte) {
		return (ind+200)*BlockSize + BlockSize/2, pattern(file, -1)
	}
	paths := []string{"/a", "/b"}
	check := func(p *sim.Proc, fs *FileSystem, when string) {
		for i, path := range paths {
			f, err := fs.Open(p, path)
			if err != nil {
				t.Fatalf("%s: Open %s: %v", when, path, err)
			}
			got := make([]byte, BlockSize)
			for _, fbn := range fbns {
				if _, err := f.ReadAt(p, got, fbn*BlockSize); err != nil {
					t.Fatalf("%s: ReadAt %s block %d: %v", when, path, fbn, err)
				}
				if !bytes.Equal(got, pattern(i, fbn)) {
					t.Errorf("%s: %s block %d reads back wrong", when, path, fbn)
				}
			}
			off, want := straddle(i)
			if _, err := f.ReadAt(p, got, off); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: %s straddling write reads back wrong (%v)", when, path, err)
			}
			if _, err := f.ReadAt(p, got, (ind+1)*BlockSize); err != nil || !bytes.Equal(got, make([]byte, BlockSize)) {
				t.Errorf("%s: %s hole does not read as zeros (%v)", when, path, err)
			}
		}
		if r := fs.Check(p); !r.OK() {
			t.Errorf("%s: fsck: %v", when, r.Problems)
		}
	}
	opts := Options{CacheBlocks: 4}
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, opts); err != nil {
		t.Fatalf("Format: %v", err)
	}
	e.Spawn("test", func(p *sim.Proc) {
		fs, err := Mount(p, d, opts)
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		var files []*File
		for _, path := range paths {
			f, err := fs.Create(p, path)
			if err != nil {
				t.Errorf("Create %s: %v", path, err)
				return
			}
			files = append(files, f)
		}
		for _, fbn := range fbns {
			for i, f := range files {
				if _, err := f.WriteAt(p, pattern(i, fbn), fbn*BlockSize); err != nil {
					t.Errorf("WriteAt %s block %d: %v", paths[i], fbn, err)
					return
				}
			}
		}
		for i, f := range files {
			off, data := straddle(i)
			if _, err := f.WriteAt(p, data, off); err != nil {
				t.Errorf("straddling WriteAt %s: %v", paths[i], err)
				return
			}
		}
		check(p, fs, "written")
		fs.Sync(p)
		if fs, err = Mount(p, d, opts); err != nil {
			t.Errorf("remount: %v", err)
			return
		}
		check(p, fs, "remounted")
		if n := len(fs.Cache().frames()); n > 4 {
			t.Errorf("a 4-block cache holds %d frames", n)
		}
	})
	e.Run()
}
