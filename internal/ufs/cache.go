package ufs

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/sim"
)

// cacheEntry is one cached file-system block. It owns an 8 KB frame for
// life: an entry leaving the cache goes, frame and all, to the cache's free
// list, and the next block that needs a frame takes it from there.
type cacheEntry struct {
	blk     int64
	data    []byte // the frame, BlockSize bytes
	dirty   bool
	pending bool // I/O is in flight on the frame: a read filling it or a write-back
	// waiters holds processes waiting out the I/O in flight. It is made by
	// the first lookup that has to wait on this entry, and kept when the
	// entry is recycled: most entries never get one.
	waiters *sim.Waiter

	prev, next *cacheEntry // LRU links; nil while the entry is not resident
}

// readRun is one disk read in flight filling a run of entries — a clustered
// read-ahead, or the single block a Get miss waits on: the entries, the
// staging buffer a multi-block read lands in (one block reads straight into
// its frame), and the request. Records are recycled when their read
// completes, so a warm cache reads without allocating.
type readRun struct {
	c       *Cache
	entries []*cacheEntry
	buf     []byte
	req     disk.Request
	done    func(*disk.Request, []byte) // complete, bound once
	// sync marks a Get miss's read. Its failure panics, as every
	// synchronous file-system read does: it must not corrupt silently.
	sync bool
}

// Cache is a write-back LRU buffer cache over file-system blocks. All
// blocking methods take the calling process; the cache itself performs the
// disk I/O (on the normal, non-real-time queue — CRAS never reads through
// it).
//
// Every resident entry sits on an intrusive doubly-linked list in recency
// order: a touch moves the entry to the back, so eviction walks from the
// front and takes the first entry it may drop. Entries leave the list when
// they leave the map, and only then.
//
// The cache owns its frames. An entry that leaves the cache with no I/O in
// flight on its frame is recycled at once; one with I/O in flight is
// recycled when that I/O settles. The free list keeps a frame only while
// free and resident entries together stay within capacity, so a cache never
// holds more than capacity frames beyond a miss's temporary overshoot.
type Cache struct {
	dsk      BlockDevice
	capacity int
	entries  map[int64]*cacheEntry
	lru      cacheEntry // sentinel: lru.next is least, lru.prev most recent
	free     []*cacheEntry
	runs     []*readRun // idle read records

	// Stats.
	Hits       int64
	Misses     int64
	Writebacks int64
	Prefetches int64
}

// NewCache creates a cache holding up to capacity blocks.
func NewCache(dsk BlockDevice, capacity int) *Cache {
	if capacity < 4 {
		capacity = 4
	}
	c := &Cache{dsk: dsk, capacity: capacity, entries: make(map[int64]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// pushBack links e as the most recently used entry.
func (c *Cache) pushBack(e *cacheEntry) {
	e.prev, e.next = c.lru.prev, &c.lru
	e.prev.next = e
	c.lru.prev = e
}

// unlink takes a resident e off the LRU list.
func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// insert makes e resident as the most recently used entry, replacing any
// entry its block already has.
func (c *Cache) insert(e *cacheEntry) {
	if old, ok := c.entries[e.blk]; ok {
		c.remove(old)
	}
	c.entries[e.blk] = e
	c.pushBack(e)
}

// remove drops e from the cache if it is still resident: it may have been
// invalidated, and its block cached afresh, while its owner was blocked.
// An entry with I/O in flight keeps its frame until settle.
func (c *Cache) remove(e *cacheEntry) {
	if e.next == nil {
		return
	}
	delete(c.entries, e.blk)
	c.unlink(e)
	if !e.pending {
		c.recycle(e)
	}
}

// newEntry returns an entry for blk with a frame, recycled when one is free.
// The frame holds whatever its last block left there.
func (c *Cache) newEntry(blk int64) *cacheEntry {
	var e *cacheEntry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		e = &cacheEntry{data: make([]byte, BlockSize)} //crasvet:allow hotalloc -- at most capacity frames: the free list hands recycled ones out first
	}
	e.blk, e.dirty, e.pending = blk, false, false
	return e
}

// recycle puts a departed entry on the free list, or lets it go when the
// free and resident entries already fill the capacity.
func (c *Cache) recycle(e *cacheEntry) {
	if len(c.free)+len(c.entries) < c.capacity {
		c.free = append(c.free, e) //crasvet:allow hotalloc -- the free list never holds more than capacity entries
	}
}

// settle ends the I/O in flight on e, wakes whoever waited on it, and
// recycles the entry if it left the cache meanwhile.
func (c *Cache) settle(e *cacheEntry) {
	e.pending = false
	if e.waiters != nil {
		e.waiters.WakeAll()
	}
	if e.next == nil {
		c.recycle(e)
	}
}

// touch marks a resident entry most recently used. An entry that was
// dropped while a caller waited on it stays dropped.
func (c *Cache) touch(e *cacheEntry) {
	if e.next == nil {
		return
	}
	c.unlink(e)
	c.pushBack(e)
}

// lookup returns blk's settled entry, waiting out I/O in flight, or nil
// when the block is not cached. The entry may leave the cache while the
// caller waits — a prefetch that fails drops its entries — so every wakeup
// looks the block up again.
func (c *Cache) lookup(p *sim.Proc, blk int64) *cacheEntry {
	for {
		e, ok := c.entries[blk]
		if !ok {
			return nil
		}
		if !e.pending {
			return e
		}
		e.wait(p)
	}
}

// wait parks p until the I/O in flight on e settles (or, spuriously,
// sooner: callers re-check).
func (e *cacheEntry) wait(p *sim.Proc) {
	if e.waiters == nil {
		e.waiters = sim.NewWaiter("cache") // once per entry object: recycling keeps it
	}
	e.waiters.Wait(p)
}

// Get returns the contents of a block, reading it from disk on a miss. The
// returned slice is the entry's frame, valid until the caller's next call
// into the cache or next blocking operation: after that the frame may hold
// another block. Callers that modify it must call MarkDirty with the same
// block number within that window.
func (c *Cache) Get(p *sim.Proc, blk int64) []byte {
	if e := c.lookup(p, blk); e != nil {
		c.Hits++
		c.touch(e)
		return e.data
	}
	c.Misses++
	c.evictFor(p, 1)
	e := c.read(blk, 1, true)
	for e.pending {
		e.wait(p)
	}
	return e.data
}

// GetZero returns a zeroed entry for a block that is about to be fully
// overwritten, without reading it from disk. Its frame has Get's lifetime.
func (c *Cache) GetZero(p *sim.Proc, blk int64) []byte {
	e := c.lookup(p, blk)
	if e != nil {
		c.touch(e)
	} else {
		c.evictFor(p, 1)
		e = c.newEntry(blk)
		c.insert(e)
	}
	clear(e.data)
	return e.data
}

// MarkDirty flags a cached block as modified so eviction and Sync write it
// back.
func (c *Cache) MarkDirty(blk int64) {
	if e, ok := c.entries[blk]; ok {
		e.dirty = true
	} else {
		panic(fmt.Sprintf("ufs: MarkDirty of uncached block %d", blk))
	}
}

// Contains reports whether a block is resident (even if still being filled).
func (c *Cache) Contains(blk int64) bool {
	_, ok := c.entries[blk]
	return ok
}

// Prefetch starts an asynchronous read of count consecutive blocks starting
// at blk, skipping any that are already resident. It never blocks the
// caller. Runs of absent blocks are fetched with single multi-block disk
// requests, which is where FFS-style clustered read-ahead gets its
// throughput.
func (c *Cache) Prefetch(blk int64, count int) {
	i := 0
	for i < count {
		// Skip resident blocks.
		for i < count && c.Contains(blk+int64(i)) {
			i++
		}
		if i >= count {
			return
		}
		runStart := i
		for i < count && !c.Contains(blk+int64(i)) {
			i++
		}
		c.prefetchRun(blk+int64(runStart), i-runStart)
	}
}

// prefetchRun reads count absent blocks from blk ahead of demand.
//
//crasvet:hotpath
func (c *Cache) prefetchRun(blk int64, count int) {
	// Room check: prefetch must not evict synchronously (no proc context);
	// drop clean LRU entries only, and shrink the run if the cache is tight.
	for len(c.entries)+count > c.capacity {
		victim := c.lruVictim(true)
		if victim == nil {
			break
		}
		c.remove(victim)
	}
	if len(c.entries)+count > c.capacity {
		count = c.capacity - len(c.entries)
		if count <= 0 {
			return
		}
	}
	c.Prefetches += int64(count)
	c.read(blk, count, false)
}

// read inserts pending entries for count blocks from blk and submits one
// disk read to fill them; it returns the first entry.
func (c *Cache) read(blk int64, count int, sync bool) *cacheEntry {
	r := c.newRun()
	r.sync = sync
	for i := 0; i < count; i++ {
		e := c.newEntry(blk + int64(i))
		e.pending = true
		c.insert(e)
		r.entries = append(r.entries, e) //crasvet:allow hotalloc -- the record keeps its slice: grows only to the longest run
	}
	// A run of several blocks is one request into one staging buffer,
	// copied into the frames on completion.
	data := r.entries[0].data
	if count > 1 {
		if n := count * BlockSize; cap(r.buf) < n {
			r.buf = make([]byte, n) //crasvet:allow hotalloc -- the record keeps its buffer: grows only to the longest run
		}
		r.buf = r.buf[:count*BlockSize]
		data = r.buf
	}
	r.req = disk.Request{LBA: blk * SectorsPerBlock, Count: count * SectorsPerBlock, Data: data, Done: r.done}
	c.dsk.Submit(&r.req)
	return r.entries[0]
}

// newRun returns an idle read record, recycled when one is free.
func (c *Cache) newRun() *readRun {
	if n := len(c.runs); n > 0 {
		r := c.runs[n-1]
		c.runs = c.runs[:n-1]
		return r
	}
	r := &readRun{c: c} //crasvet:allow hotalloc -- one record per read in flight at the high-water mark
	r.done = r.complete
	return r
}

// complete fills a multi-block run's frames from the staging buffer, or on
// a failed read forgets the blocks so a waiter fetches them itself, then
// recycles the record.
func (r *readRun) complete(req *disk.Request, _ []byte) {
	if req.Err != nil && r.sync {
		panic("ufs: unhandled injected fault on synchronous block read")
	}
	c := r.c
	for i, e := range r.entries {
		if req.Err != nil {
			c.remove(e)
		} else if len(r.entries) > 1 {
			copy(e.data, r.buf[i*BlockSize:])
		}
		c.settle(e)
		r.entries[i] = nil
	}
	r.entries = r.entries[:0]
	c.runs = append(c.runs, r) //crasvet:allow hotalloc -- never longer than the records ever made
}

// lruVictim returns the least recently used entry that is not pending and,
// with cleanOnly, not dirty; nil if there is none.
func (c *Cache) lruVictim(cleanOnly bool) *cacheEntry {
	for e := c.lru.next; e != &c.lru; e = e.next {
		if !e.pending && !(cleanOnly && e.dirty) {
			return e
		}
	}
	return nil
}

// evictFor makes room for n new entries, writing back dirty victims.
func (c *Cache) evictFor(p *sim.Proc, n int) {
	for len(c.entries)+n > c.capacity {
		victim := c.lruVictim(false)
		if victim == nil {
			return // everything pending; allow temporary overshoot
		}
		if victim.dirty {
			c.writeBack(p, victim)
		}
		c.remove(victim)
	}
}

// writeBack writes a dirty entry to disk. The entry is pending meanwhile,
// like a read in flight, so its frame cannot be recycled under the write.
func (c *Cache) writeBack(p *sim.Proc, e *cacheEntry) {
	c.Writebacks++
	e.pending = true
	c.dsk.WriteSync(p, e.blk*SectorsPerBlock, SectorsPerBlock, e.data, false)
	e.dirty = false
	c.settle(e)
}

// Sync writes back every dirty block.
func (c *Cache) Sync(p *sim.Proc) {
	// Deterministic order: ascending block number.
	var dirty []int64
	for blk, e := range c.entries {
		if e.dirty && !e.pending {
			dirty = append(dirty, blk)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	for _, blk := range dirty {
		c.writeBack(p, c.entries[blk])
	}
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return len(c.entries) }

// Invalidate drops a block from the cache, discarding dirty data. Used when
// freeing blocks.
func (c *Cache) Invalidate(blk int64) {
	if e, ok := c.entries[blk]; ok {
		c.remove(e)
	}
}
