package core

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// ladderScript drives one health-ladder case by hand: from mid-cycle, it
// adds errs[i] hard failures to the subject's per-cycle count before the
// i-th cycle edge, so each edge's ladder step sees exactly that many.
type ladderScript struct {
	name   string
	cfg    Config
	errs   []int // failures injected before each cycle edge
	cycles int   // cycle edges observed (>= len(errs))
	member int   // parity cases: the member the failures count against
	kill   []int // parity cases: members force-failed with the first injection
	want   []string
}

// ladderCycleRE finds the cycle stamp of a ladder trace line.
var ladderCycleRE = regexp.MustCompile(`at cycle (\d+):`)

// runLadderScript plays the script and returns the server's ladder trace
// lines (transitions and rate step-downs), each cycle stamp rewritten
// relative to the edge that consumed the first injection.
func runLadderScript(t *testing.T, sc ladderScript, parity bool) []string {
	t.Helper()
	var lines []string
	base, collecting := -1, true
	tracer := func(_ sim.Time, format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if !collecting || !(strings.HasPrefix(line, "cras: stream ") || strings.HasPrefix(line, "cras: member ")) ||
			!(strings.Contains(line, " -> ") || strings.Contains(line, "stepped down")) {
			return
		}
		line = ladderCycleRE.ReplaceAllStringFunc(line, func(m string) string {
			n, _ := strconv.Atoi(ladderCycleRE.FindStringSubmatch(m)[1])
			return fmt.Sprintf("at cycle +%d:", n-base)
		})
		lines = append(lines, strings.TrimPrefix(line, "cras: "))
	}
	drive := func(k *rtm.Kernel, srv *Server, th *rtm.Thread, h *Handle) {
		k.Engine().SetTracer(tracer)
		interval := srv.Config().Interval
		// Line up half a cycle after an edge, so every injection lands
		// strictly between two ladder steps.
		for c := srv.CycleCount(); srv.CycleCount() == c; {
			th.Sleep(10 * time.Millisecond)
		}
		th.Sleep(interval / 2)
		base = srv.cycle + 1
		for i := 0; i < sc.cycles; i++ {
			if i < len(sc.errs) {
				if h != nil {
					h.st.cycleErrs += sc.errs[i]
				} else {
					srv.members[sc.member].cycleErrs += sc.errs[i]
				}
			}
			for _, m := range sc.kill {
				if i == 0 {
					srv.FailMember(m)
				}
			}
			if h != nil {
				h.Available(0) // keep the session lease alive
			}
			th.Sleep(interval)
		}
		collecting = false
		srv.Shutdown()
	}
	if !parity {
		movie := media.MPEG1().Generate("/m1", 30*time.Second)
		newBed(t, 3, ufs.Options{}, sc.cfg, map[string]*media.StreamInfo{"/m1": movie},
			func(b *bed, th *rtm.Thread) {
				h, err := b.cras.Open(th, movie, "/m1", OpenOptions{})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				drive(b.k, b.cras, th, h)
			})
		return lines
	}
	e := sim.NewEngine(3)
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads = 64, 2
	members := make([]*disk.Disk, 4)
	for i := range members {
		members[i] = disk.New(e, "sd"+string(rune('0'+i)), g, p)
	}
	vol, err := disk.NewParityVolume("vol0", members, 64)
	if err != nil {
		t.Fatalf("NewParityVolume: %v", err)
	}
	if _, err := ufs.Format(vol, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, vol, ufs.Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		k := rtm.NewKernel(e)
		unix := ufs.NewServer(k, fs, rtm.PrioTS, 0)
		cfg := sc.cfg
		cfg.Params = MeasureAdmissionParams(members[0], 64<<10)
		srv := NewVolumeServer(k, vol, unix, cfg)
		k.NewThread("app", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			drive(k, srv, th, nil)
		})
	})
	e.RunUntil(10 * time.Minute)
	return lines
}

func checkLadderScripts(t *testing.T, scripts []ladderScript, parity bool) {
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			got := runLadderScript(t, sc, parity)
			if strings.Join(got, "\n") != strings.Join(sc.want, "\n") {
				t.Errorf("ladder trace:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(sc.want, "\n  "))
			}
		})
	}
}

// TestStreamLadderSequences pins the stream ladder's exact transitions,
// cycles and causes: entry to Degraded on the first unrecovered failure
// (however many land in one cycle — the overshoot does not count toward
// suspension), SuspendAfter further failures to Suspended, a delivered-rate
// step-down that re-enters Degraded with its count restarted, recovery after
// 8 consecutive clean cycles, and eviction 4 intervals after suspension.
func TestStreamLadderSequences(t *testing.T) {
	checkLadderScripts(t, []ladderScript{{
		name:   "overshoot on entry",
		errs:   []int{3, 1, 1, 1, 1},
		cycles: 6,
		want: []string{
			"stream 0 (/m1) healthy -> degraded at cycle +0: 3 unrecovered read failures",
			"stream 0 (/m1) degraded -> suspended at cycle +4: 4 failures while degraded",
		},
	}, {
		name:   "rate step-down re-enters degraded",
		cfg:    Config{RateLadder: []float64{1, 0.75, 0.5}},
		errs:   []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		cycles: 14,
		want: []string{
			"stream 0 (/m1) healthy -> degraded at cycle +0: 1 unrecovered read failures",
			"stream 0 (/m1) delivered rate stepped down to 0.75 instead of suspending",
			"stream 0 (/m1) delivered rate stepped down to 0.50 instead of suspending",
			"stream 0 (/m1) degraded -> suspended at cycle +12: 4 failures while degraded",
		},
	}, {
		name:   "recovery after clean cycles",
		errs:   []int{2, 0, 0, 0, 1},
		cycles: 16,
		want: []string{
			"stream 0 (/m1) healthy -> degraded at cycle +0: 2 unrecovered read failures",
			"stream 0 (/m1) degraded -> healthy at cycle +12: 8 clean cycles",
		},
	}, {
		name:   "suspended then evicted",
		errs:   []int{1, 1, 1, 1, 1},
		cycles: 12,
		want: []string{
			"stream 0 (/m1) healthy -> degraded at cycle +0: 1 unrecovered read failures",
			"stream 0 (/m1) degraded -> suspended at cycle +4: 4 failures while degraded",
			"stream 0 (/m1) suspended -> evicted at cycle +8: suspension timed out",
		},
	}}, false)
}

// TestMemberLadderSequences pins the parity member ladder: the error window
// ages by one per clean cycle while Healthy, is carried whole into Suspect
// (so MemberDeadAfter counts the total, not failures since Suspect), clean
// cycles while Suspect do not age it, and a second member is never killed
// while another is already dead.
func TestMemberLadderSequences(t *testing.T) {
	checkLadderScripts(t, []ladderScript{{
		name:   "carried window reaches dead",
		errs:   []int{5, 1},
		cycles: 3,
		member: 1,
		want: []string{
			"member 1 healthy -> suspect at cycle +0: 5 hard failures",
			"member 1 suspect -> dead at cycle +1: 6 hard failures",
		},
	}, {
		name:   "aging window, suspect back to healthy",
		errs:   []int{2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1},
		cycles: 20,
		member: 2,
		want: []string{
			"member 2 healthy -> suspect at cycle +2: 3 hard failures",
			"member 2 suspect -> healthy at cycle +18: 8 clean cycles",
		},
	}, {
		name:   "second member spared while another is dead",
		errs:   []int{3, 1, 1, 1, 1, 1},
		cycles: 7,
		member: 2,
		kill:   []int{0},
		want: []string{
			"member 0 healthy -> dead at cycle +0: operator fail",
			"member 2 healthy -> suspect at cycle +0: 3 hard failures",
		},
	}}, true)
}
