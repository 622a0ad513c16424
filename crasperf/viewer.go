package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

const (
	// pollEvery is how often a viewer re-checks its buffer for a frame
	// that was not there at its due time.
	pollEvery = 5 * time.Millisecond
	// giveUpFrames is how many frame-times past due a frame may arrive
	// before the viewer counts it lost.
	giveUpFrames = 5
	// hogBurst is one CPU burst of a competing computation.
	hogBurst = 8 * time.Millisecond
	hogRest  = 2 * time.Millisecond
	// pauseDwell is how long a scripted pause holds the frame.
	pauseDwell = 1500 * time.Millisecond
)

// viewerRec is what the benchmark observed of one viewer, all in virtual
// time.
type viewerRec struct {
	thread     *rtm.Thread
	lag        sim.Time // Open call minus scripted arrival
	openLat    sim.Time // scripted arrival to the return of Open
	admitted   bool
	refused    bool
	opened     sim.Time // Open returned
	closed     sim.Time // Close returned
	startup    sim.Time // scripted arrival to the first frame in hand; -1 if none
	due        int      // frames the viewer waited for
	onTime     int      // in hand within one frame-time of due
	late       int      // in hand, but later than that
	lost       int      // never in hand within the give-up budget
	ctl        []sim.Time
	vcrOps     int
	vcrRefused int
	shared     int64 // chunks served from the interval cache, fan-out or prefix
	stamped    int64 // chunks stamped into this viewer's buffer
	done       bool
}

// recorderRec is what the benchmark observed of one recording session.
type recorderRec struct {
	planned int64
	opened  sim.Time
	closed  sim.Time
	ctl     []sim.Time
	done    bool
}

// actors runs the benchmark's simulated clients against a ready system and
// checks what they receive.
type actors struct {
	sys     *system
	plans   []viewerPlan
	viewers []viewerRec
	recs    []recorderRec
	recInfo []*media.StreamInfo
	readyAt sim.Time
	tr      *tracer // nil when not tracing

	attempted int
	failed    int
	problems  []string
	slack     []sim.Time // due minus StampedAt, one per frame in hand
}

func (a *actors) problem(format string, args ...any) {
	if len(a.problems) < 20 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

// fail records an operation that returned an error the workload does not
// expect.
func (a *actors) fail(format string, args ...any) {
	a.failed++
	a.problem(format, args...)
}

// finished reports whether every viewer and recorder has ended.
func (a *actors) finished() bool {
	for i := range a.viewers {
		if !a.viewers[i].done {
			return false
		}
	}
	for i := range a.recs {
		if !a.recs[i].done {
			return false
		}
	}
	return true
}

// start spawns every client. It runs in engine context from the ready
// callback.
func (a *actors) start(sh shape) {
	k := a.sys.k
	a.readyAt = k.Now()
	for i := range a.recs {
		k.NewThread(fmt.Sprintf("recorder%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			a.record(th, i)
		})
	}
	for _, m := range a.sys.machines {
		for i := 0; i < sh.cats; i++ {
			path := fmt.Sprintf("/cat%d", i)
			m.App("cat:"+path, rtm.PrioTS, 0, func(th *rtm.Thread) { cat(th, m.Unix, path) })
		}
		// The competing computation of the paper's Figure 10, as a periodic
		// task at the request manager's priority.
		for i := 0; i < sh.hogs; i++ {
			m.App(fmt.Sprintf("hog%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
				for {
					th.Compute(hogBurst)
					th.Sleep(hogRest)
				}
			})
		}
	}
	// One generator thread releases the viewers at their scripted arrival
	// times; a viewer thread late to its Open shows up as arrival lag.
	k.NewThread("generator", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		for i := range a.plans {
			if at := a.readyAt + a.plans[i].arrive; k.Now() < at {
				th.SleepUntil(at)
			}
			a.viewers[i].thread = k.NewThread(fmt.Sprintf("viewer%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
				a.view(th, i)
			})
		}
	})
}

// rpc times one control call and records it as a span.
func (a *actors) rpc(th *rtm.Thread, viewer int, name string, parent int, call func() error) (sim.Time, int, error) {
	a.attempted++
	t0 := th.Kernel().Now()
	err := call()
	t1 := th.Kernel().Now()
	return t1 - t0, a.tr.span(viewer, name, parent, t0, t1), err
}

// view is one viewer's whole life: arrive, open, play its frames with its
// VCR script spliced in, close.
func (a *actors) view(th *rtm.Thread, id int) {
	k := th.Kernel()
	p := &a.plans[id]
	r := &a.viewers[id]
	defer func() { r.done = true }()
	arrival := a.readyAt + p.arrive
	r.lag = k.Now() - arrival
	r.startup = -1
	var pl player
	_, openSpan, err := a.rpc(th, id, "open", -1, func() error {
		var err error
		pl, err = a.sys.open(th, p.title)
		return err
	})
	r.openLat = k.Now() - arrival
	if err != nil {
		if refusal(err) {
			r.refused = true
			return
		}
		a.fail("viewer %d: open: %v", id, err)
		return
	}
	r.admitted, r.opened = true, k.Now()
	defer func() {
		st := handleOf(pl).StreamStats()
		r.shared = st.ChunksFromCache + st.ChunksFromGroup + st.ChunksFromPrefix
		r.stamped = st.ChunksStamped
		lat, _, err := a.rpc(th, id, "close", openSpan, func() error { return pl.Close(th) })
		r.ctl = append(r.ctl, lat)
		r.closed = k.Now()
		if err != nil {
			a.fail("viewer %d: close: %v", id, err)
		}
	}()
	lat, _, err := a.rpc(th, id, "start", openSpan, func() error { return pl.Start(th) })
	r.ctl = append(r.ctl, lat)
	if err != nil {
		a.fail("viewer %d: start: %v", id, err)
		return
	}
	info := a.sys.titles[p.title]
	frameDur := info.Chunks[0].Duration
	ops := p.ops
	pos := 0
	for n := 0; n < p.frames; n++ {
		for len(ops) > 0 && ops[0].after == n {
			op := ops[0]
			ops = ops[1:]
			next, ok := a.vcr(th, id, openSpan, pl, op, info)
			if !ok {
				return // the session could not resume: the viewer leaves
			}
			if next >= 0 {
				pos = next
			}
			// Frames that played out while the viewer sat in the call were
			// never waited for: pick up at the clock's current position.
			pos = max(pos, info.ChunkAt(pl.LogicalNow()))
		}
		if pos >= len(info.Chunks) {
			return // seeks and fast play reached the end of the title
		}
		c := info.Chunks[pos]
		due := pl.ClockStartsAt(c.Timestamp)
		if due < 0 {
			a.fail("viewer %d: clock stopped at chunk %d", id, pos)
			return
		}
		if k.Now() < due {
			th.SleepUntil(due)
		}
		r.due++
		for limit := due + giveUpFrames*frameDur; ; {
			if bc, ok := pl.Get(c.Timestamp); ok {
				if bc.Index != pos || bc.Timestamp != c.Timestamp || bc.Size != c.Size {
					a.problem("viewer %d: %s chunk %d: got index %d ts %v size %d, want ts %v size %d",
						id, info.Name, pos, bc.Index, bc.Timestamp, bc.Size, c.Timestamp, c.Size)
				}
				if k.Now()-due > frameDur {
					r.late++
				} else {
					r.onTime++
				}
				a.slack = append(a.slack, due-bc.StampedAt)
				if r.startup < 0 {
					r.startup = k.Now() - arrival
					a.tr.span(id, "first-frame", openSpan, arrival, k.Now())
				}
				break
			}
			if k.Now() >= limit {
				r.lost++
				break
			}
			th.Sleep(pollEvery)
		}
		pos++
	}
}

// vcr runs one scripted operation. It returns the chunk index playback
// continues from (-1 to keep going where it was) and false when the
// viewer has to leave.
func (a *actors) vcr(th *rtm.Thread, id, parent int, pl player, op vcrOp, info *media.StreamInfo) (int, bool) {
	h := handleOf(pl)
	r := &a.viewers[id]
	call := func(name string, fn func() error) bool {
		lat, _, err := a.rpc(th, id, name, parent, fn)
		r.ctl = append(r.ctl, lat)
		r.vcrOps++
		switch {
		case err == nil:
			return true
		case errors.Is(err, core.ErrVCRRefused):
			r.vcrRefused++
		default:
			a.fail("viewer %d: %s: %v", id, name, err)
		}
		return false
	}
	switch op.kind {
	case "seek":
		if call("seek", func() error { return h.Seek(th, info.Chunks[op.target].Timestamp) }) {
			return op.target, true
		}
	case "pause":
		if !call("pause", func() error { return h.Pause(th) }) {
			return -1, true
		}
		th.Sleep(pauseDwell)
		if call("resume", func() error { return h.Resume(th) }) {
			return -1, true
		}
		// Refused: give the server two intervals, then try once more.
		th.Sleep(2 * a.sys.interval)
		return -1, call("resume", func() error { return h.Resume(th) })
	case "rate":
		call("setrate", func() error { return h.SetRate(th, op.rate) })
	}
	return -1, true
}

// record runs one constant-rate recording session for its planned length
// and checks that every planned byte reached the disk.
func (a *actors) record(th *rtm.Thread, i int) {
	k := th.Kernel()
	r := &a.recs[i]
	defer func() { r.done = true }()
	m := a.sys.machines[0]
	info := a.recInfo[i]
	viewer := -1 - i // recorders get negative ids in the span log
	var h *core.Handle
	_, openSpan, err := a.rpc(th, viewer, "open-record", -1, func() error {
		var err error
		h, err = m.CRAS.OpenRecord(th, info, info.Name, core.OpenOptions{})
		return err
	})
	if err != nil {
		a.fail("recorder %d: open: %v", i, err)
		return
	}
	r.opened = k.Now()
	lat, _, err := a.rpc(th, viewer, "start", openSpan, func() error { return h.Start(th) })
	r.ctl = append(r.ctl, lat)
	if err != nil {
		a.fail("recorder %d: start: %v", i, err)
		return
	}
	// A recorder never reads its buffer; renew the lease until the capture
	// and its last write are done.
	for end := k.Now() + m.CRAS.Config().InitialDelay + info.TotalDuration() + 2*a.sys.interval; k.Now() < end; {
		th.Sleep(time.Second)
		if err := h.Renew(th); err != nil {
			a.fail("recorder %d: renew: %v", i, err)
			return
		}
	}
	// The last write covers a whole file-system block.
	st := h.StreamStats()
	if want := (r.planned + ufs.BlockSize - 1) / ufs.BlockSize * ufs.BlockSize; st.BytesCompleted != want ||
		st.ChunksStamped != int64(len(info.Chunks)) {
		a.problem("recorder %d: wrote %d bytes in %d chunks, planned %d bytes (%d block-aligned) in %d chunks",
			i, st.BytesCompleted, st.ChunksStamped, r.planned, want, len(info.Chunks))
	}
	lat, _, err = a.rpc(th, viewer, "close", openSpan, func() error { return h.Close(th) })
	r.ctl = append(r.ctl, lat)
	r.closed = k.Now()
	if err != nil {
		a.fail("recorder %d: close: %v", i, err)
		return
	}
	fst, err := ufs.NewClient(m.Unix, th).Stat(info.Name)
	if err != nil || fst.Size != r.planned {
		a.problem("recorder %d: file %s is %d bytes (%v), planned %d", i, info.Name, fst.Size, err, r.planned)
	}
}

// cat is the paper's competing disk load: a timesharing reader that reads
// a file through the Unix server in 256 KB calls, over and over.
func cat(th *rtm.Thread, srv *ufs.Server, path string) {
	c := ufs.NewClient(srv, th)
	fd, err := c.Open(path)
	if err != nil {
		return
	}
	const req = 256 << 10
	for off := int64(0); ; {
		data, err := c.Read(fd, off, req)
		if err != nil {
			return
		}
		off += int64(len(data))
		if len(data) < req {
			off = 0
		}
	}
}

// handleOf returns the CRAS handle behind a session.
func handleOf(pl player) *core.Handle {
	if s, ok := pl.(*cluster.Session); ok {
		return s.Handle()
	}
	return pl.(*core.Handle)
}

// refusal reports whether an Open error is a capacity refusal (admission,
// control-plane overload, or every cluster node saying no) rather than a
// failure.
func refusal(err error) bool {
	var ae *core.AdmissionError
	var oe *core.OverloadError
	return errors.As(err, &ae) || errors.As(err, &oe) || errors.Is(err, cluster.ErrFailover)
}
