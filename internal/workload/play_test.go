package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// fakeSession is a stream whose clock starts at zero: every frame is
// buffered from its due time on. stale serves frame 0 whatever the time
// asked for; stopAt and refuseAt (frame indices, 0 = never) stop the clock
// or refuse the session once the player asks for that frame.
type fakeSession struct {
	info             *media.StreamInfo
	stale            bool
	stopAt, refuseAt int
	asked            int // highest frame index asked for
	closed           bool
}

func (f *fakeSession) Start(*rtm.Thread) error { return nil }
func (f *fakeSession) Close(*rtm.Thread) error { f.closed = true; return nil }
func (f *fakeSession) Info() *media.StreamInfo { return f.info }
func (f *fakeSession) CacheBacked() bool       { return false }
func (f *fakeSession) MulticastMember() bool   { return false }
func (f *fakeSession) DeliveredRate() float64  { return 1 }
func (f *fakeSession) Refused() bool           { return f.refuseAt > 0 && f.asked >= f.refuseAt }

func (f *fakeSession) ClockStartsAt(t sim.Time) sim.Time {
	f.asked = max(f.asked, int(t/f.info.Chunks[0].Duration))
	if f.stopAt > 0 && f.asked >= f.stopAt {
		return -1
	}
	return t
}

func (f *fakeSession) Get(t sim.Time) (core.BufferedChunk, bool) {
	c := f.info.Chunks[int(t/f.info.Chunks[0].Duration)]
	if f.stale {
		c = f.info.Chunks[0]
	}
	return core.BufferedChunk{Timestamp: c.Timestamp, Duration: c.Duration, Size: c.Size}, true
}

// playFake runs Play over f on a bare kernel and returns the record and
// the virtual time playback took.
func playFake(t *testing.T, f *fakeSession, ops []Op) (*PlayerStats, sim.Time) {
	t.Helper()
	eng := sim.NewEngine(1)
	k := rtm.NewKernel(eng)
	var st PlayerStats
	var took sim.Time
	k.NewThread("fake", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		Play(k, th, f, ops, PlayerConfig{}, &st)
		took = k.Now()
	})
	eng.RunFor(10 * time.Second)
	return &st, took
}

// A chunk that does not cover the time asked for is still delivered, but
// Play counts it: the freshness invariant every sweep and scenario reads.
func TestPlayCountsExpiredChunks(t *testing.T) {
	f := &fakeSession{info: media.MPEG1().Generate("/f", time.Second), stale: true}
	st, _ := playFake(t, f, nil)
	if st.Obtained != 30 || st.Lost != 0 || st.Frames != 30 {
		t.Fatalf("obtained %d lost %d of %d frames, want 30/0/30", st.Obtained, st.Lost, st.Frames)
	}
	if st.Expired != 29 {
		t.Fatalf("Expired = %d, want 29 (every frame after the first)", st.Expired)
	}
	if !f.closed {
		t.Fatal("player did not hang up at the end of the window")
	}
	fresh, _ := playFake(t, &fakeSession{info: f.info}, nil)
	if fresh.Expired != 0 || fresh.Obtained != 30 {
		t.Fatalf("fresh session: Expired %d, obtained %d", fresh.Expired, fresh.Obtained)
	}
}

// A stopped clock costs each remaining frame at the frame cadence; a
// refused session forfeits the rest of its window at once.
func TestPlayStoppedAndRefused(t *testing.T) {
	info := media.MPEG1().Generate("/f", time.Second)
	frameDur := info.Chunks[0].Duration
	st, took := playFake(t, &fakeSession{info: info, stopAt: 10}, nil)
	if st.Obtained != 10 || st.Lost != 20 || st.Frames != 30 || len(st.LostAt) != 20 {
		t.Fatalf("stopped: obtained %d lost %d (%d LostAt) of %d", st.Obtained, st.Lost, len(st.LostAt), st.Frames)
	}
	if took < 29*frameDur {
		t.Fatalf("stopped clock: 30 frames accounted for in %v, want at least %v", took, 29*frameDur)
	}
	st, took = playFake(t, &fakeSession{info: info, refuseAt: 10}, nil)
	if st.Obtained != 10 || st.Lost != 20 || st.Frames != 30 {
		t.Fatalf("refused: obtained %d lost %d of %d", st.Obtained, st.Lost, st.Frames)
	}
	if took > 10*frameDur {
		t.Fatalf("refused session played on until %v", took)
	}
}

// Scripted ops need a session with VCR controls; anything else ends the
// session with an error rather than silently skipping the script.
func TestPlayOpNeedsControls(t *testing.T) {
	f := &fakeSession{info: media.MPEG1().Generate("/f", time.Second)}
	st, _ := playFake(t, f, []Op{{Kind: OpSeek, After: 5}})
	if st.Err == nil || st.Fired != 1 || st.Frames != 5 || st.Obtained != 5 {
		t.Fatalf("op on a bare session: err %v, fired %d, %d/%d frames", st.Err, st.Fired, st.Obtained, st.Frames)
	}
	if !f.closed {
		t.Fatal("player did not hang up after the failed op")
	}
}
