package core

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/ufs"
)

func TestOpsOnClosedStreamFail(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 4*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			if err := h.Close(th); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := h.Start(th); err == nil {
				t.Error("Start on closed stream succeeded")
			}
			if err := h.Stop(th); err == nil {
				t.Error("Stop on closed stream succeeded")
			}
			if err := h.Seek(th, time.Second); err == nil {
				t.Error("Seek on closed stream succeeded")
			}
			if err := h.SetRate(th, 2); err == nil {
				t.Error("SetRate on closed stream succeeded")
			}
			if err := h.Close(th); err == nil {
				t.Error("double Close succeeded")
			}
		})
}

// TestCloseOfReapedSessionSucceedsOnce: a session the server reaped on its
// own (here: lease expiry) is still the client's to close once — the reap
// was already reported through Health — and a second Close fails like any
// double close.
func TestCloseOfReapedSessionSucceedsOnce(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			th.Sleep(b.cras.Config().LeaseTTL + 2*b.cras.Config().Interval)
			if h.Health() != Evicted {
				t.Fatalf("Health = %v after an idle lease, want evicted", h.Health())
			}
			if err := h.Close(th); err != nil {
				t.Errorf("first Close of a reaped session: %v", err)
			}
			if err := h.Close(th); err == nil {
				t.Error("second Close of a reaped session succeeded")
			}
		})
}

func TestOpenMissingFile(t *testing.T) {
	movie := media.MPEG1().Generate("/nosuch", 2*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{},
		func(b *bed, th *rtm.Thread) {
			if _, err := b.cras.Open(th, movie, "/nosuch", OpenOptions{}); err == nil {
				t.Error("Open of missing file succeeded")
			}
		})
}

func TestOpenUndersizedFile(t *testing.T) {
	// Chunk table describes more bytes than the stored file holds.
	small := media.MPEG1().Generate("/m1", 2*time.Second)
	big := media.MPEG1().Generate("/m1", 10*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": small},
		func(b *bed, th *rtm.Thread) {
			if _, err := b.cras.Open(th, big, "/m1", OpenOptions{}); err == nil {
				t.Error("Open with oversized chunk table succeeded")
			}
		})
}

func TestOpenInvalidChunkTable(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 2*time.Second)
	corrupt := media.MPEG1().Generate("/m1", 2*time.Second)
	corrupt.Chunks[5].Offset += 9
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			if _, err := b.cras.Open(th, corrupt, "/m1", OpenOptions{}); err == nil {
				t.Error("Open with corrupt chunk table succeeded")
			}
		})
}

func TestSeekBeyondEndStopsFetching(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 4*time.Second)
	newBed(t, 1, ufs.Options{}, Config{},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, _ := b.cras.Open(th, movie, "/m1", OpenOptions{})
			h.Start(th)
			if err := h.Seek(th, time.Hour); err != nil {
				t.Errorf("Seek past end: %v", err)
			}
			th.Sleep(2 * time.Second)
			sched := h.StreamStats().BytesScheduled
			th.Sleep(2 * time.Second)
			if h.StreamStats().BytesScheduled != sched {
				t.Error("fetching continued past end of stream")
			}
		})
}

// sessionOpsOK plays up to 12 session operations on one stream, then
// checks that nothing overflowed, that the client's Close succeeds — also
// when the server already evicted or reaped the session on its own — and
// that no stream is left open.
func sessionOpsOK(t *testing.T, movie *media.StreamInfo, ops []uint8) bool {
	if len(ops) > 12 {
		ops = ops[:12]
	}
	ok := true
	newBed(t, 7, ufs.Options{}, Config{BufferBudget: 32 << 20},
		map[string]*media.StreamInfo{"/m1": movie},
		func(b *bed, th *rtm.Thread) {
			h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
			if err != nil {
				ok = false
				return
			}
			for _, op := range ops {
				switch op % 5 {
				case 0:
					h.Start(th)
				case 1:
					h.Stop(th)
				case 2:
					h.Seek(th, time.Duration(op%18)*time.Second)
				case 3:
					h.SetRate(th, []float64{0.5, 1, 2}[int(op)%3])
				case 4:
					th.Sleep(time.Duration(op%4) * 300 * time.Millisecond)
				}
			}
			th.Sleep(2 * time.Second)
			buf := h.BufferStats()
			if buf.Overflowed != 0 {
				t.Logf("overflowed %d after ops %v", buf.Overflowed, ops)
				ok = false
			}
			if err := h.Close(th); err != nil {
				t.Logf("Close after ops %v (health %v): %v", ops, h.Health(), err)
				ok = false
			}
			if b.cras.ActiveStreams() != 0 {
				ok = false
			}
		})
	return ok
}

// Property: any sequence of session operations leaves the server
// consistent — no buffer overflows, no deadline machinery wedged, and the
// stream either playable or cleanly closed. The generator is seeded: a
// fixed default, overridden with SESSION_PROP_SEED (CI rotates it), so a
// failure replays with
//
//	SESSION_PROP_SEED=<seed> go test ./internal/core -run TestPropertySessionOpsNeverWedge
func TestPropertySessionOpsNeverWedge(t *testing.T) {
	movie := media.MPEG1().Generate("/m1", 20*time.Second)
	// Found by the unseeded generator: the session is reaped while the
	// client sleeps, so the Close that follows meets an evicted stream.
	pinned := [][]uint8{{0xa3, 0x43, 0x9f, 0x99, 0x2d, 0x47, 0xbf, 0x06, 0xae, 0xef, 0x9f, 0x95}}
	for _, ops := range pinned {
		if !sessionOpsOK(t, movie, ops) {
			t.Fatalf("pinned ops % x failed", ops)
		}
	}
	seed := int64(20261018)
	if env := os.Getenv("SESSION_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("SESSION_PROP_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("property seed %d (override with SESSION_PROP_SEED)", seed)
	f := func(ops []uint8) bool { return sessionOpsOK(t, movie, ops) }
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
