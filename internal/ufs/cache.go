package ufs

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/sim"
)

// cacheEntry is one cached file-system block.
type cacheEntry struct {
	blk     int64
	data    []byte
	dirty   bool
	pending bool // a read is in flight filling this entry
	// waiters holds processes waiting out the read in flight. It is made
	// by the first lookup that has to wait: most entries never get one.
	waiters *sim.Waiter

	prev, next *cacheEntry // LRU links; nil while the entry is not resident
}

// settle ends the entry's read in flight, filled or failed, and wakes
// whoever waited on it.
func (e *cacheEntry) settle() {
	e.pending = false
	if e.waiters != nil {
		e.waiters.WakeAll()
	}
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
type Cache struct {
	dsk      BlockDevice
	capacity int
	entries  map[int64]*cacheEntry
	lru      cacheEntry // sentinel: lru.next is least, lru.prev most recent

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

// unlink takes e off the LRU list; an entry already off it is left alone.
func (c *Cache) unlink(e *cacheEntry) {
	if e.next == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// insert makes e resident as the most recently used entry, replacing any
// entry its block already has.
func (c *Cache) insert(e *cacheEntry) {
	if old, ok := c.entries[e.blk]; ok {
		c.unlink(old)
	}
	c.entries[e.blk] = e
	c.pushBack(e)
}

// remove drops e from the cache if it is still the resident entry for its
// block: it may have been invalidated, and its block cached afresh, while
// its owner was blocked.
func (c *Cache) remove(e *cacheEntry) {
	if c.entries[e.blk] == e {
		delete(c.entries, e.blk)
	}
	c.unlink(e)
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

// lookup returns blk's filled entry, waiting out a read in flight, or nil
// when the block is not cached. A prefetch that fails drops its entries,
// so a caller that waited on one looks again.
func (c *Cache) lookup(p *sim.Proc, blk int64) *cacheEntry {
	for e, ok := c.entries[blk]; ok; e, ok = c.entries[blk] {
		for e.pending {
			if e.waiters == nil {
				e.waiters = sim.NewWaiter(fmt.Sprintf("cache:%d", e.blk))
			}
			e.waiters.Wait(p)
		}
		if e.data != nil {
			return e
		}
	}
	return nil
}

// Get returns the contents of a block, reading it from disk on a miss. The
// returned slice aliases the cache entry: callers that modify it must call
// MarkDirty with the same block number before the next blocking operation.
func (c *Cache) Get(p *sim.Proc, blk int64) []byte {
	if e := c.lookup(p, blk); e != nil {
		c.Hits++
		c.touch(e)
		return e.data
	}
	c.Misses++
	c.evictFor(p, 1)
	e := &cacheEntry{blk: blk, pending: true}
	c.insert(e)
	data := c.dsk.ReadSync(p, blk*SectorsPerBlock, SectorsPerBlock, false)
	e.data = data
	e.settle()
	return e.data
}

// GetZero returns a cache entry for a block that is about to be fully
// overwritten, without reading it from disk.
func (c *Cache) GetZero(p *sim.Proc, blk int64) []byte {
	if e := c.lookup(p, blk); e != nil {
		c.touch(e)
		clear(e.data)
		return e.data
	}
	c.evictFor(p, 1)
	e := &cacheEntry{blk: blk, data: make([]byte, BlockSize)}
	c.insert(e)
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
	entries := make([]*cacheEntry, count)
	for i := 0; i < count; i++ {
		e := &cacheEntry{blk: blk + int64(i), pending: true}
		c.insert(e)
		entries[i] = e
	}
	c.Prefetches += int64(count)
	// One buffer for the run; each entry keeps its own capped slice of it.
	buf := make([]byte, count*BlockSize)
	c.dsk.Submit(&disk.Request{
		LBA:   blk * SectorsPerBlock,
		Count: count * SectorsPerBlock,
		Data:  buf,
		Done: func(r *disk.Request, _ []byte) {
			for i, e := range entries {
				if r.Err != nil {
					// Nothing was read: forget the blocks so a waiter
					// fetches them itself.
					c.remove(e)
				} else {
					e.data = buf[i*BlockSize : (i+1)*BlockSize : (i+1)*BlockSize]
				}
				e.settle()
			}
		},
	})
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
			c.Writebacks++
			c.dsk.WriteSync(p, victim.blk*SectorsPerBlock, SectorsPerBlock, victim.data, false)
		}
		c.remove(victim)
	}
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
		e := c.entries[blk]
		c.Writebacks++
		c.dsk.WriteSync(p, blk*SectorsPerBlock, SectorsPerBlock, e.data, false)
		e.dirty = false
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
