package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/sim"
)

// Sharing: one producer/consumer relation (after Jayarekha & Nair, who
// treat interval caching and prefix multicast as one admission policy).
// The admission test charges every stream disk time plus a buffer; a
// share swaps a consumer's disk time for RAM. One producer — an ordinary
// disk-fed stream — supplies its consumers, in open order, and each
// consumer holds a charge in its kind's pool. Two delivery policies:
//
//   - pin (the interval cache, CacheBudget): when a stream opens a path an
//     active stream is playing, the leader pins the chunks it discards until
//     its followers have consumed them, and each follower stamps them from
//     the pins at the cycle edge. The prefix the leader consumed before the
//     follower arrived (chunks below cacheFrom) can never be pinned; the
//     follower fetches it from disk like any stream, riding the admission
//     slack. A follower's pool charge is its steady-state pin reservation
//     (gap+J)·R+C, checked against the committed reservations; each pin is
//     then checked against the same budget.
//   - fan-out (multicast batching, PrefixBudget): opens for the same path
//     inside the batching window — or, past it, on a title with a pinned
//     prefix — join the youngest joinable feed, which copies every chunk it
//     stamps into each member's buffer at the cycle edge, so K viewers of a
//     hot title cost one stream's disk time. The member's head the feed
//     already stamped is backfilled at join time from the title's prefix
//     pins and the feed's buffer. A member's charge (gap+2T)·R+2C must fit
//     beside the committed charges and the pinned prefixes.
//
// Both charge the admission test (gap+2T)·R+2C of buffer and no disk time;
// it is never below B_i, so a consumer turning back into a plain stream
// never raises the memory the test sees. A stream consumes from at most one
// share, but may produce for one share of each kind at once: a feed can
// lead a path cache. The open ladder tries fan-out, then the cache, then a
// plain disk stream.
//
// Lifecycle: attach at open; detach at close; one-way fallback to disk at
// the stamp point within the same cycle when the supply fails (producer
// closed, suspended or dropped a needed chunk, a refused pin, a full
// fan-out buffer) or a VCR operation breaks the temporal overlap; and on
// the producer's departure, promotion of the earliest consumer — the one
// furthest ahead, keeping producers before consumers in stream order. A
// departing leader pins what its buffer still holds, and members already
// hold every chunk the feed fanned out, so survivors lose nothing while the
// promoted producer's first disk batch is in flight. A pin share dissolves
// when its last follower leaves; a fan-out share once it has neither
// members nor feed. Only fan-out re-arms the clock of a session still
// inside its initial delay (rearm). Already-stamped chunks stay buffered
// across every switch; the time-driven discard rule still guards Get.
//
// The pinned prefix rides on fan-out: a popularity tracker (windowed open
// counts with exponential decay) qualifies the hottest titles, and the
// first PrefixDuration of a qualified title is pinned as it streams by,
// charged to the fan-out pool. Prefix pins belong to the title, not to a
// share, are exempt from the cache's eviction, and are never released.

// shareKind is a share's delivery policy.
type shareKind int

const (
	pinShare shareKind = iota // interval cache: followers stamp the leader's pins
	fanShare                  // multicast batch: the feed copies chunks to its members
)

// shareText holds each kind's trace formats: the cache's lines start with
// "cras: cache", fan-out's with "cras: mcast".
var shareText = [2]struct{ fallback, promote string }{
	pinShare: {
		fallback: "cras: cache fallback stream %d on %s at chunk %d: %s",
		promote:  "cras: cache promote stream %d to leader on %s (leader %d closed, %d followers remain)",
	},
	fanShare: {
		fallback: "cras: mcast fallback stream %d on %s at chunk %d: %s",
		promote:  "cras: mcast promote stream %d to feed on %s (feed %d left, %d members remain)",
	},
}

// share is one producer/consumer relation.
type share struct {
	kind      shareKind
	path      string
	producer  *stream
	consumers []*stream       // open order: the earliest is promoted first
	pins      []BufferedChunk // pin kind: the pinned interval, sorted by timestamp
	bytes     int64           // pinned bytes in pins
	createdAt int             // scheduler cycle, for deterministic eviction ties
}

// sharePool is one kind's ledger: the budget, the consumers' committed
// charges, the pinned bytes (a cache's intervals, or the titles' prefixes)
// and the live shares.
type sharePool struct {
	budget    int64
	committed int64
	pinned    int64
	shares    []*share
}

// consumes reports whether st consumes from a share of kind k.
func (st *stream) consumes(k shareKind) bool { return st.src != nil && st.src.kind == k }

// sharing reports whether a VCR operation on st would change the admission
// set: st consumes from a share, or produces for one with consumers.
func (st *stream) sharing() bool {
	for _, sh := range st.prod {
		if sh != nil && len(sh.consumers) > 0 {
			return true
		}
	}
	return st.src != nil
}

// gone reports that a share's supply has dried up for good: no producer,
// or one that stopped producing (closed, or suspended — a suspended
// producer's clock is frozen and it fetches nothing).
func (sh *share) gone() bool {
	p := sh.producer
	return p == nil || p.closed || p.health >= Suspended
}

// shareEnabled reports whether a kind is configured on: the cache needs a
// budget; batching needs a window and the budget both fan-out buffers and
// prefix pins are charged against.
func (s *Server) shareEnabled(k shareKind) bool {
	if k == pinShare {
		return s.cfg.CacheBudget > 0
	}
	return s.cfg.BatchWindow > 0 && s.cfg.PrefixBudget > 0
}

// shareOffer is an open's planned seat in a share: the producer it rides
// and the charge the kind's pool will hold.
type shareOffer struct {
	kind   shareKind
	p      *stream
	charge int64
}

// offerShare prices an open riding a share of kind k: the candidate
// producer, the pool charge, and par carrying the share's admission charge
// — or a zero offer and par unchanged when there is no candidate or the
// pool refuses. A refused fan-out join counts as MulticastRefused.
func (s *Server) offerShare(k shareKind, r openReq, now sim.Time, par StreamParams) (shareOffer, StreamParams) {
	p := s.shareCandidate(k, r, now)
	if p == nil {
		return shareOffer{}, par
	}
	// The steady-state gap: the producer's clock plus the opener's initial
	// delay (the producer keeps advancing while the opener's clock waits).
	// A reopen at a later stamp point trails by that much less; a
	// non-positive gap means the opener would run ahead of the producer.
	lead := p.clock.At(now) + s.cfg.InitialDelay
	gap := lead - r.at
	charge := s.shareCharge(gap, par)
	pool := &s.pools[k]
	held, used := charge, pool.committed+pool.pinned
	if k == pinShare {
		held, used = s.pinReservation(gap, par), pool.committed
	}
	if gap <= 0 || used+held > pool.budget || lead >= r.info.TotalDuration() {
		if k == fanShare {
			s.stats.MulticastRefused++
		}
		return shareOffer{}, par
	}
	if k == pinShare {
		par.Cached, par.CacheBytes = true, charge
	} else {
		par.Multicast, par.FanoutBytes = true, charge
	}
	return shareOffer{kind: k, p: p, charge: held}, par
}

// shareCharge is a consumer's admission charge (CacheBytes or FanoutBytes):
// the gap it trails its producer by plus a double-buffer window, at its
// rate. It is always at least B_i.
func (s *Server) shareCharge(gap sim.Time, par StreamParams) int64 {
	return int64((gap+2*s.cfg.Interval).Seconds()*par.Rate) + 2*par.Chunk
}

// pinReservation is the pin bytes a follower at the given gap will hold in
// steady state; attachments are refused when the reservations would exceed
// the cache budget, keeping pin refusals (and the fallbacks they force) an
// edge case rather than the steady state.
func (s *Server) pinReservation(gap sim.Time, par StreamParams) int64 {
	return int64((gap+s.cfg.Jitter).Seconds()*par.Rate) + par.Chunk
}

// shareCandidate finds the producer an open could ride in a share of kind
// k: the producer of a share on the path, or else a stream a new share can
// form around, as pick chooses.
func (s *Server) shareCandidate(k shareKind, r openReq, now sim.Time) *stream {
	if !s.shareEnabled(k) || r.record || (r.dr > 0 && r.dr < 1) {
		// Reduced-delivered-rate viewers skip frames; a consumer must take
		// its producer's full stamp sequence, so they read alone.
		return nil
	}
	var best *stream
	for _, sh := range s.pools[k].shares {
		if sh.path == r.path {
			best = s.pick(k, best, sh.producer, r, now)
			if k == pinShare {
				return best // one path cache per path: its leader or nobody
			}
		}
	}
	if best != nil {
		return best
	}
	for _, st := range s.streams {
		if !st.closed && !st.record && st.src == nil && st.prod[k] == nil && st.name == r.path {
			best = s.pick(k, best, st, r, now)
		}
	}
	return best
}

// pick is the candidate rule: the cache follows the first producer that can
// supply the open; fan-out joins the youngest joinable feed — it has the
// smallest head to backfill.
func (s *Server) pick(k shareKind, best, p *stream, r openReq, now sim.Time) *stream {
	if k == pinShare {
		if best == nil && s.canProduce(p, r) {
			return p
		}
	} else if s.fanJoinable(p, r, now) && (best == nil || p.openedAt > best.openedAt) {
		return p
	}
	return best
}

// canProduce checks that p can supply the consumer described by the
// request: healthy enough to keep producing, same playback rate, and a
// structurally identical chunk table (timestamps must line up).
func (s *Server) canProduce(p *stream, r openReq) bool {
	if p == nil || p.closed || p.health >= Suspended {
		return false
	}
	if p.dr < 1 || p.paused || p.rev != nil {
		// A thinned, frozen, or rewinding producer does not produce the full
		// forward stamp sequence consumers ride on.
		return false
	}
	rate := r.rate
	if rate == 0 {
		rate = 1
	}
	return p.clock.Rate() == rate && (p.info == r.info ||
		len(p.info.Chunks) == len(r.info.Chunks) && p.info.TotalSize() == r.info.TotalSize())
}

// shareAttach joins a newly opened stream to its producer's share as a
// consumer, creating the share on first use. handleOpen calls it after the
// stream exists; par already carries the share's admission charge.
func (s *Server) shareAttach(st *stream, o shareOffer, now sim.Time) {
	p, pool := o.p, &s.pools[o.kind]
	sh := p.prod[o.kind]
	if sh == nil {
		sh = &share{kind: o.kind, path: p.name, producer: p, createdAt: s.cycle}
		p.prod[o.kind] = sh
		pool.shares = append(pool.shares, sh)
		if o.kind == fanShare {
			s.stats.MulticastGroups++
		}
	}
	sh.consumers = append(sh.consumers, st)
	st.src, st.charge = sh, o.charge
	pool.committed += o.charge
	if o.kind == fanShare {
		s.fanBackfill(st, sh, now)
		return
	}
	// The first chunk the cache can supply: everything from the leader's
	// discard horizon (or the existing pin floor) onward will be pinned;
	// everything before it is the follower's disk-fetched prefix.
	floor := s.pinFloor(p, now)
	from := 0
	if floor > 0 {
		from = st.info.ChunkAt(floor)
		if from < 0 {
			from = len(st.info.Chunks)
		} else if st.info.Chunks[from].Timestamp < floor {
			from++ // chunk straddling the floor is already gone
		}
	}
	st.cacheFrom = from
	// Keep the warm-up prefix reads tight: whole-extent overshoot past
	// cacheFrom would fetch bytes the cache is about to supply.
	st.wholeExtents = false
	s.stats.CacheAttached++
	s.k.Engine().Tracef("cras: cache attach stream %d to leader %d on %s (gap %v, prefix %d chunks)",
		st.id, p.id, sh.path, p.clock.At(now), from)
}

// release turns a consumer back into a plain stream: its pool charge is
// freed and its admission parameters charge disk time again.
func (s *Server) release(st *stream) {
	s.pools[st.src.kind].committed -= st.charge
	st.src, st.charge = nil, 0
	st.par = StreamParams{Rate: st.par.Rate, Chunk: st.par.Chunk}
}

// shareDetach removes a consumer from its share without touching the fetch
// machinery (close and fallback share it). A pin share dissolves with its
// last follower; a fan-out share once it has no members and no feed.
func (s *Server) shareDetach(st *stream) {
	sh := st.src
	s.release(st)
	sh.consumers = without(sh.consumers, st)
	if len(sh.consumers) == 0 && (sh.kind == pinShare || sh.producer == nil || sh.producer.closed) {
		s.shareDissolve(sh)
	}
}

// shareDissolve frees a share's pins, unlinks its producer and drops it
// from its pool.
func (s *Server) shareDissolve(sh *share) {
	pool := &s.pools[sh.kind]
	pool.pinned -= sh.bytes
	sh.bytes, sh.pins = 0, nil
	if p := sh.producer; p != nil && p.prod[sh.kind] == sh {
		p.prod[sh.kind] = nil
	}
	sh.producer = nil
	pool.shares = without(pool.shares, sh)
}

// without splices x out of list in place.
func without[T comparable](list []T, x T) []T {
	for i, v := range list {
		if v == x {
			return append(list[:i], list[i+1:]...) //crasvet:allow hotalloc -- shrink-only splice; never grows past capacity
		}
	}
	return list
}

// shareFallback converts a consumer to plain disk fetching at its stamp
// point, so phase 2 of the current cycle issues its reads and the switch
// costs at most one interval. One-way: the stream never rejoins a share.
//
//crasvet:hotpath
func (s *Server) shareFallback(st *stream, now sim.Time, reason string) {
	k := st.src.kind
	s.shareDetach(st)
	if k == pinShare {
		s.stats.CacheFallbacks++
	} else {
		s.rearm(st, now)
		s.stats.MulticastFallbacks++
	}
	st.refetch()
	s.k.Engine().Tracef(shareText[k].fallback, st.id, st.name, st.nextStamp, reason) //crasvet:allow hotalloc -- formats once per fallback, not per cycle
}

// refetch rolls the promise pointer back to the stamp point and moves the
// byte-fetch machinery there, so phase 2 of the current cycle issues the
// reads: a seek, or a consumer falling back to disk or promoted to
// producer. In-flight reads are invalidated by the generation bump;
// stamped chunks stay.
func (s *stream) refetch() {
	s.gen++
	s.pending = s.pending[:0]
	s.failedRanges = nil
	s.nextChunk = s.nextStamp
	s.setFetchPoint(s.nextStamp)
}

// shareBreak strands every consumer of a share (producer seek, pause or
// rate change; cache eviction): each falls back to disk. A fan-out share
// then dissolves; a pin share dissolved with its last follower.
func (s *Server) shareBreak(sh *share, now sim.Time, reason string) {
	for len(sh.consumers) > 0 {
		s.shareFallback(sh.consumers[0], now, reason)
	}
	if sh.kind == fanShare {
		s.shareDissolve(sh)
	}
}

// unshare takes st out of sharing before a VCR operation moves its clock
// away from its partners': as a consumer it falls back to disk (reason op),
// as a leader or feed it strands its consumers.
func (s *Server) unshare(st *stream, now sim.Time, op, asLeader, asFeed string) {
	for k, why := range [2]string{asLeader, asFeed} {
		if sh := st.prod[k]; sh != nil {
			s.shareBreak(sh, now, why)
		} else if st.consumes(shareKind(k)) {
			s.shareFallback(st, now, op)
		}
	}
}

// shareOnClose handles a participant leaving (crs_close or a recovery
// eviction): a consumer detaches, a producer hands each share it produces
// for to its earliest consumer.
func (s *Server) shareOnClose(st *stream, now sim.Time) {
	for k := range st.prod {
		if st.consumes(shareKind(k)) {
			s.shareDetach(st)
		}
		sh := st.prod[k]
		if sh == nil {
			continue
		}
		if sh.kind == pinShare {
			// Pin whatever the leader still held; followers keep consuming it
			// while the promoted leader's first disk batch is in flight.
			end := st.info.TotalDuration() + 1
			pinH := s.pinHorizon(sh, end, now)
			s.pin(sh, st.buf.PopBefore(end), pinH)
		}
		sh.producer, st.prod[k] = nil, nil
		if len(sh.consumers) == 0 {
			s.shareDissolve(sh)
			continue
		}
		s.sharePromote(sh, st, now)
		if sh.kind == pinShare && len(sh.consumers) == 0 && sh.bytes == 0 {
			s.shareDissolve(sh)
		}
	}
}

// sharePromote hands a producer-less share to its earliest consumer: it
// releases its charge and restores plain disk-charging parameters (the
// departed producer freed its own B_i and disk time), and repositions its
// fetch machinery at its stamp point so its first disk batch joins the next
// cycle. Fan-out re-arms every session still inside its initial delay: it
// has no fanned-out runway to coast on while the new feed's first batch is
// in flight.
func (s *Server) sharePromote(sh *share, old *stream, now sim.Time) {
	next := sh.consumers[0]
	sh.consumers = sh.consumers[1:]
	s.release(next)
	sh.producer, next.prod[sh.kind] = next, sh
	next.refetch()
	if sh.kind == pinShare {
		s.stats.CachePromotions++
	} else {
		s.rearm(next, now)
		for _, m := range sh.consumers {
			s.rearm(m, now)
		}
		s.stats.MulticastPromotions++
	}
	s.k.Engine().Tracef(shareText[sh.kind].promote, next.id, sh.path, old.id, len(sh.consumers)) //crasvet:allow hotalloc -- formats once per promotion, not per cycle
}

// rearm restores a disturbed fan-out session's prefill window. A session
// whose supply is cut during its initial delay has consumed no frames yet,
// but part of its delay budget is gone — the disk refetch (wait for the
// edge, read, stamp at the next edge) can take the full InitialDelay,
// which only an undisturbed fresh open has left. Sliding the start gives it
// exactly a fresh open's window again: the client sees a slightly longer
// startup, never a mid-play glitch. A session already playing keeps its
// clock — it holds a join-gap-plus-double-buffer window of fanned-out
// runway, which covers the one-interval switch.
func (s *Server) rearm(st *stream, now sim.Time) {
	if st.clock.PendingStart(now) {
		st.clock.Start(now, s.startAnchor(now))
	}
}

// slowest is the smallest of h and every consumer's logical clock at now.
func (sh *share) slowest(h, now sim.Time) sim.Time {
	for _, c := range sh.consumers {
		if l := c.clock.At(now); l < h {
			h = l
		}
	}
	return h
}

// ---- pin policy: the interval cache ----

// pinCmp orders a pin against a timestamp for slices.BinarySearchFunc; a
// top-level function captures nothing, so the search allocates nothing on
// the per-cycle path.
func pinCmp(c BufferedChunk, ts sim.Time) int { return cmp.Compare(c.Timestamp, ts) }

// pinHorizon is the slowest follower's discard line, capped at h: pins
// wholly behind it will never be read again. Every buffer keeps the same
// jitter window.
func (s *Server) pinHorizon(sh *share, h, now sim.Time) sim.Time {
	return sh.slowest(h+s.cfg.Jitter, now) - s.cfg.Jitter
}

// pin adds the chunks a leader discarded to its pin set, sorted by
// timestamp: skipping those already behind every follower and duplicates
// (a promoted leader re-popping a chunk the old leader pinned), budget
// permitting.
func (s *Server) pin(sh *share, popped []BufferedChunk, pinH sim.Time) {
	pool := &s.pools[pinShare]
	for _, c := range popped {
		if c.Timestamp+c.Duration <= pinH {
			continue
		}
		if pool.pinned+c.Size > pool.budget {
			s.stats.CachePinRefused++
			continue
		}
		at, dup := slices.BinarySearchFunc(sh.pins, c.Timestamp, pinCmp)
		if dup {
			continue
		}
		sh.pins = append(sh.pins, BufferedChunk{}) //crasvet:allow hotalloc -- pin-set insert; capacity retained, bounded by the cache budget
		copy(sh.pins[at+1:], sh.pins[at:])
		sh.pins[at] = c
		sh.bytes += c.Size
		pool.pinned += c.Size
	}
}

// pinFloor is the oldest media time a leader's cache can still supply: its
// discard horizon, or the oldest pin if the path cache reaches further back.
func (s *Server) pinFloor(leader *stream, now sim.Time) sim.Time {
	floor := leader.clock.At(now) - leader.buf.Jitter()
	if sh := leader.prod[pinShare]; sh != nil && len(sh.pins) > 0 && sh.pins[0].Timestamp < floor {
		floor = sh.pins[0].Timestamp
	}
	return floor
}

// cacheFromTs is the media time of the first cache-supplied chunk — the
// bound on the follower's disk prefetch horizon during warm-up.
func (st *stream) cacheFromTs() sim.Time {
	if st.cacheFrom >= len(st.info.Chunks) {
		return st.info.TotalDuration()
	}
	return st.info.Chunks[st.cacheFrom].Timestamp
}

// pinLookup reports whether a follower's chunk is resident in the path's
// pin set or the leader's buffer.
func (s *Server) pinLookup(st *stream, idx int) bool {
	sh, ts := st.src, st.info.Chunks[idx].Timestamp
	if _, ok := slices.BinarySearchFunc(sh.pins, ts, pinCmp); ok {
		return true
	}
	if p := sh.producer; p != nil && !p.closed {
		_, ok := p.buf.At(ts)
		return ok
	}
	return false
}

// pinAdvance is the follower's phase-2 step, the cache-side counterpart of
// fetchTargets: advance the promise pointer over every chunk the cache
// covers up to the horizon. A chunk is covered when it is resident (pinned
// or in the leader's buffer) or promised — the leader has scheduled its
// fetch (nextChunk past it) and not yet stamped past it. An uncovered
// chunk inside the horizon is a miss, and the follower falls back to disk
// immediately so its reads join this same cycle's batch.
func (s *Server) pinAdvance(st *stream, now, horizon sim.Time) {
	chunks := st.info.Chunks
	if st.nextChunk < st.cacheFrom {
		return // warm-up prefix still owned by the disk path
	}
	for st.nextChunk < len(chunks) && chunks[st.nextChunk].Timestamp < horizon {
		idx := st.nextChunk
		covered := s.pinLookup(st, idx)
		if !covered && !st.src.gone() {
			leader := st.src.producer
			covered = leader.nextStamp <= idx && leader.nextChunk > idx
		}
		if !covered {
			s.stats.CacheMisses++
			s.shareFallback(st, now, fmt.Sprintf("chunk %d not covered", idx)) //crasvet:allow hotalloc -- formats once per cache fallback, not per cycle
			return
		}
		st.nextChunk++
	}
}

// pinStamp is the follower's phase-1 step, the cache-side counterpart of
// absorbCompletions: stamp every promised chunk that is now resident in
// the cache into the follower's own time-driven buffer, with the disk
// path's late-chunk handling so delivery timing is identical. A promised
// chunk that never arrived means the leader failed or the pin budget
// refused it; if it is due within the next interval or the leader cannot
// supply it anymore, the follower falls back to disk now (phase 2 of this
// same cycle issues the reads).
func (s *Server) pinStamp(st *stream, now sim.Time) {
	if st.nextStamp < st.cacheFrom {
		return // warm-up prefix chunks arrive through absorbCompletions
	}
	chunks := st.info.Chunks
	logical := st.clock.At(now)
	tdiscard := logical - st.buf.Jitter()
	for st.nextStamp < st.nextChunk && st.nextStamp < len(chunks) {
		c := chunks[st.nextStamp]
		if !s.pinLookup(st, st.nextStamp) {
			gone := st.src.gone()
			if gone || st.src.producer.nextStamp > st.nextStamp || c.Timestamp <= logical+s.cfg.Interval {
				s.stats.CacheMisses++
				s.shareFallback(st, now, fmt.Sprintf("chunk %d missing at stamp time", st.nextStamp)) //crasvet:allow hotalloc -- formats once per cache fallback, not per cycle
			}
			return // else: the leader has not produced it yet; wait a cycle
		}
		if st.late(c, logical, tdiscard) {
			st.nextStamp++
			continue
		}
		st.buf.Insert(stampedChunk(st.nextStamp, c, now))
		st.stats.ChunksStamped++
		st.stats.ChunksFromCache++
		s.stats.CacheHits++
		s.stats.CacheBytesServed += c.Size
		st.nextStamp++
	}
}

// pinDiscard is the leader's phase-1 discard step: chunks falling behind
// the leader's horizon are pinned for the followers (budget permitting)
// instead of dropped, and pins every follower has consumed are freed.
func (s *Server) pinDiscard(sh *share, horizon, now sim.Time) {
	popped := sh.producer.buf.PopBefore(horizon)
	pinH := s.pinHorizon(sh, horizon, now)
	s.pin(sh, popped, pinH)
	// Free the pins every follower has consumed: their playback end is at
	// or before the pin horizon.
	pool, n := &s.pools[pinShare], 0
	for n < len(sh.pins) && sh.pins[n].Timestamp+sh.pins[n].Duration <= pinH {
		sh.bytes -= sh.pins[n].Size
		pool.pinned -= sh.pins[n].Size
		n++
	}
	if n > 0 {
		sh.pins = append(sh.pins[:0], sh.pins[n:]...) //crasvet:allow hotalloc -- append into sh.pins[:0]; capacity retained by construction
	}
	if pool.pinned > s.stats.CachePinnedPeak {
		s.stats.CachePinnedPeak = pool.pinned
	}
}

// pinEvictLargest implements the deterministic eviction order when a new
// non-cacheable stream is refused for buffer memory: the path cache
// spanning the largest interval (leader clock minus slowest follower
// clock) frees the most pinned RAM per follower converted back to disk.
// Ties break to the oldest cache, then the lowest leader id. Returns false
// when there is nothing to evict.
func (s *Server) pinEvictLargest(now sim.Time) bool {
	var victim *share
	var victimSpan sim.Time
	for _, sh := range s.pools[pinShare].shares {
		if len(sh.consumers) == 0 || sh.producer == nil {
			continue
		}
		lead := sh.producer.clock.At(now)
		span := lead - sh.slowest(lead, now)
		if victim == nil || span > victimSpan ||
			(span == victimSpan && (sh.createdAt < victim.createdAt ||
				(sh.createdAt == victim.createdAt && sh.producer.id < victim.producer.id))) {
			victim = sh
			victimSpan = span
		}
	}
	if victim == nil {
		return false
	}
	s.stats.CacheEvictions++
	s.k.Engine().Tracef("cras: cache evict path %s (span %v, %d followers) for admission pressure",
		victim.path, victimSpan, len(victim.consumers))
	s.shareBreak(victim, now, "cache evicted for admission pressure")
	return true
}

// ---- fan-out policy: multicast batching and the pinned prefix ----

// popHalfLife is the popularity tracker's decay half-life: an open counts
// half as much toward prefix qualification after this long.
const popHalfLife = 2 * time.Minute

// popEntry is one path's decayed open count. Decay is applied per entry
// from its own last-open time, so the bookkeeping involves no map
// iteration and stays deterministic.
type popEntry struct {
	path  string
	count float64
	at    sim.Time
}

// prefixPin is one title's pinned prefix: its first chunks, contiguous
// from index 0 (pins[i] is chunk i), held permanently once pinned.
type prefixPin struct {
	path  string
	pins  []BufferedChunk
	bytes int64
}

// popNote records a playback open for the popularity tracker and returns
// the path's decayed open count.
func (s *Server) popNote(path string, now sim.Time) float64 {
	for i := range s.pop {
		pe := &s.pop[i]
		if pe.path != path {
			continue
		}
		age := now - pe.at
		pe.count = pe.count*math.Exp2(-float64(age)/float64(popHalfLife)) + 1
		pe.at = now
		return pe.count
	}
	s.pop = append(s.pop, popEntry{path: path, count: 1, at: now})
	return 1
}

// prefixFor returns the path's prefix entry, if the title has qualified.
func (s *Server) prefixFor(path string) *prefixPin {
	for _, pp := range s.prefixes {
		if pp.path == path {
			return pp
		}
	}
	return nil
}

// prefixQualify marks a title hot enough to deserve a pinned prefix,
// creating its (empty) entry and pointing every open stream of the path at
// it so their per-cycle stamping can grow the pins.
func (s *Server) prefixQualify(path string) {
	if s.prefixFor(path) != nil {
		return
	}
	pp := &prefixPin{path: path}
	s.prefixes = append(s.prefixes, pp)
	for _, st := range s.streams {
		if !st.closed && !st.record && st.name == path {
			st.ppin = pp
		}
	}
	s.stats.PrefixPaths++
}

// prefixAdvance pins the title's head chunks as they stream through one
// producer's buffer: contiguous from chunk 0 up to PrefixDuration of media
// time, charged against the fan-out pool, never evicted once pinned. The
// contiguity rule is the re-validation that keeps every pinned byte a byte
// that was actually delivered: a producer whose stamp pointer passed the
// pin point without the chunk resident (discarded already, or its read
// failed) left a hole and stops contributing — the next fresh open on the
// hot path, which plays from chunk 0, picks the growth back up. Runs once
// per cycle per producing (non-member) stream on a qualified path.
//
//crasvet:hotpath
func (s *Server) prefixAdvance(st *stream, now sim.Time) {
	pp := st.ppin
	pool := &s.pools[fanShare]
	chunks := st.info.Chunks
	for len(pp.pins) < len(chunks) {
		idx := len(pp.pins)
		c := chunks[idx]
		if c.Timestamp >= s.cfg.PrefixDuration {
			st.ppin = nil // prefix complete; stop probing
			return
		}
		bc, ok := st.buf.At(c.Timestamp)
		if !ok {
			if st.nextStamp > idx {
				st.ppin = nil // this producer left a hole under the head
				s.stats.PrefixTruncated++
			}
			return // not stamped yet: retry next cycle
		}
		if pool.committed+pool.pinned+c.Size > pool.budget {
			s.stats.PrefixRefused++
			return
		}
		pp.pins = append(pp.pins, bc) //crasvet:allow hotalloc -- grows once per pinned chunk, bounded by PrefixDuration for the title's lifetime
		pp.bytes += c.Size
		pool.pinned += c.Size
		if pool.pinned > s.stats.PrefixPinnedPeak {
			s.stats.PrefixPinnedPeak = pool.pinned
		}
	}
}

// fanJoinable reports whether a new open described by r can join a group
// fed by feed: the feed must be able to produce for it, and the open must
// fall inside the batching window — or, past it, on a prefix-qualified
// title. And every chunk the feed has already stamped past, from the
// joiner's start index on, must still be obtainable: pinned in the title's
// prefix, or resident in the feed's buffer. A hole (the feed dropped a
// chunk, or its discard horizon passed the prefix's reach) refuses the
// join — a member must be able to play every chunk from its start point.
func (s *Server) fanJoinable(feed *stream, r openReq, now sim.Time) bool {
	if feed == nil || feed.closed || feed.consumes(fanShare) || !s.canProduce(feed, r) {
		return false
	}
	pp := s.prefixFor(feed.name)
	if now-feed.openedAt > s.cfg.BatchWindow && pp == nil && r.at == 0 {
		return false
	}
	from := 0
	if r.at > 0 {
		// An attach-at-stamp reopen needs coverage only from its resume
		// point; it also joins outside the batching window — the group is
		// the displaced viewer's own, still in flight.
		if from = feed.info.ChunkAt(r.at); from < 0 {
			from = 0
		}
	}
	if pp != nil && len(pp.pins) > from {
		from = len(pp.pins)
	}
	for idx := from; idx < feed.nextStamp; idx++ {
		if _, ok := feed.buf.At(feed.info.Chunks[idx].Timestamp); !ok {
			return false
		}
	}
	return true
}

// fanBackfill finishes a member's attach: its buffer grows by the join gap,
// and the head the feed has already stamped is copied in — prefix pins
// first, the feed's still-resident chunks for the rest (fanJoinable
// verified the head is covered).
func (s *Server) fanBackfill(st *stream, sh *share, now sim.Time) {
	feed := sh.producer
	// The member's buffer holds the backfilled head on top of the standard
	// window — it drains only as the member's own clock advances. A member
	// reopened at a stamp point trails by correspondingly less.
	gap := feed.clock.At(now) + s.cfg.InitialDelay - st.clock.At(now)
	st.buf.SetCapacity(st.buf.Capacity() + int64(gap.Seconds()*st.par.Rate) + st.par.Chunk)

	pp := s.prefixFor(st.name)
	for idx := st.nextStamp; idx < feed.nextStamp; idx++ {
		c := st.info.Chunks[idx]
		fromPrefix := pp != nil && idx < len(pp.pins)
		if _, ok := feed.buf.At(c.Timestamp); !ok && !fromPrefix {
			continue // unreachable: fanJoinable verified coverage
		}
		if !st.buf.Insert(stampedChunk(idx, c, now)) {
			continue
		}
		st.stats.ChunksStamped++
		s.stats.ChunksStamped++
		if fromPrefix {
			st.stats.ChunksFromPrefix++
			s.stats.PrefixHits++
		} else {
			st.stats.ChunksFromGroup++
		}
	}
	if st.stats.ChunksFromPrefix > 0 {
		st.prefixStart = true // a fresh open: counted once
		s.stats.PrefixStarts++
	}
	st.nextChunk = feed.nextStamp
	st.nextStamp = feed.nextStamp
	s.stats.MulticastAttached++
	s.k.Engine().Tracef("cras: mcast attach stream %d to feed %d on %s (gap %v, head %d chunks, %d members)",
		st.id, feed.id, sh.path, feed.clock.At(now), feed.nextStamp, len(sh.consumers))
}

// fanStep runs in phase 1 right after the feed's own stamping: fan the
// chunks the feed just stamped out to every member's buffer. Returns how
// many chunks were fanned out — they join the cycle's stamping cost. A
// member whose buffer refuses a chunk falls back to disk on the spot, so
// the loop re-checks the member list after each fan-out.
//
//crasvet:hotpath
func (s *Server) fanStep(sh *share, now sim.Time) int64 {
	fanned := int64(0)
	for i := 0; i < len(sh.consumers); {
		m := sh.consumers[i]
		if m.closed || m.health >= Suspended {
			i++
			continue
		}
		n, reason := s.fanCopy(sh.producer, m, now)
		fanned += n
		if reason != "" {
			s.shareFallback(m, now, reason) // splices sh.consumers[i]
			continue
		}
		i++
	}
	return fanned
}

// fanCopy copies the feed's newly stamped chunks into one member's buffer,
// mirroring the disk path's late-chunk handling so delivery timing is
// identical to an unbatched stream. A chunk the feed dropped (read failure
// or its own late skip) is NOT dropped for the member: the member trails
// the feed by the join gap, so a plain disk stream in its place would still
// fetch the chunk in time — the member falls back and does exactly that.
// Only a chunk already behind the member's own discard line is skipped, as
// the disk path would skip it. Reports a non-empty reason when the member
// must leave the group — a hole under its stamp point, or its buffer
// refusing a chunk — and the caller falls it back to disk, which rolls its
// promise pointer back to the stamp point.
//
//crasvet:hotpath
func (s *Server) fanCopy(feed, m *stream, now sim.Time) (int64, string) {
	chunks := m.info.Chunks
	logical := m.clock.At(now)
	tdiscard := logical - m.buf.Jitter()
	n := int64(0)
	for m.nextStamp < feed.nextStamp {
		idx := m.nextStamp
		c := chunks[idx]
		if m.late(c, logical, tdiscard) {
			m.nextStamp++
			continue
		}
		if _, ok := feed.buf.At(c.Timestamp); !ok {
			return n, "feed dropped a chunk still due for the member"
		}
		if !m.buf.Insert(stampedChunk(idx, c, now)) {
			return n, "fan-out buffer overflow"
		}
		m.stats.ChunksStamped++
		m.stats.ChunksFromGroup++
		s.stats.MulticastFanout++
		n++
		m.nextStamp++
	}
	m.nextChunk = m.nextStamp
	return n, ""
}

// stampFloor is the logical clock a stream's late-skip decision measures
// against when stamping. A plain stream skips chunks its own clock has
// passed; a feed's buffer supplies the whole group, so it may skip a chunk
// only when EVERY member's clock has passed it — members trail the feed by
// their join gap, and a chunk late for the feed is often still early for
// them. Without the floor, a feed running behind schedule (a promoted or
// fallen-back stream refilling its debt) would drop head chunks its
// members still need, punching holes into the fan-out that force them to
// disk.
//
//crasvet:hotpath
func (s *Server) stampFloor(st *stream, now sim.Time) sim.Time {
	if sh := st.prod[fanShare]; sh != nil {
		return sh.slowest(st.clock.At(now), now)
	}
	return st.clock.At(now)
}
