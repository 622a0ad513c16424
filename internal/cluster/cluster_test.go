package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

const (
	tInterval = 500 * time.Millisecond
	tDelay    = 2 * time.Second
	tGiveUp   = 5 // frame durations of per-frame wait budget
)

// testMovies generates n distinct titles of the given duration.
func testMovies(n int, dur sim.Time) []lab.Movie {
	out := make([]lab.Movie, n)
	for i := range out {
		path := fmt.Sprintf("/m%02d", i)
		out[i] = lab.Movie{Path: path, Info: media.MPEG1().Generate(path, dur)}
	}
	return out
}

// testConfig is the baseline cluster the unit tests share: small nodes
// with cache and multicast enabled so placement attaches have something to
// ride.
func testConfig(nodes int, seed int64, movies []lab.Movie) Config {
	return Config{
		Nodes: nodes,
		Seed:  seed,
		Node: lab.Setup{
			CRAS: core.Config{
				Interval:     tInterval,
				InitialDelay: tDelay,
				BufferBudget: 64 << 20,
				CacheBudget:  32 << 20,
				BatchWindow:  time.Second,
				PrefixBudget: 16 << 20,
			},
		},
		Movies: movies,
	}
}

// viewer plays one session to completion, counting deliveries and losses
// with the same give-up budget the chaos campaign uses. Deadlines are
// recomputed every wait step, so a mid-play failover (which re-anchors the
// clock on the replacement node) turns into waiting, not loss.
type viewer struct {
	sess     *Session
	info     *media.StreamInfo
	obtained int
	lost     int
	done     bool
}

func (v *viewer) play(c *Cluster, th *rtm.Thread) {
	defer func() { v.done = true }()
	if err := v.sess.Start(th); err != nil {
		v.lost = len(v.info.Chunks)
		return
	}
	for i := range v.info.Chunks {
		ch := v.info.Chunks[i]
		for {
			if v.sess.Refused() {
				v.lost += len(v.info.Chunks) - i
				v.sess.Close(th)
				return
			}
			due := v.sess.ClockStartsAt(ch.Timestamp)
			now := c.k.Now()
			if due < 0 {
				th.Sleep(ch.Duration)
				v.lost++
				break
			}
			if now < due {
				wait := due - now
				if wait > 100*time.Millisecond {
					wait = 100 * time.Millisecond // re-check: a failover may move the deadline
				}
				th.Sleep(wait)
				continue
			}
			if _, ok := v.sess.Get(ch.Timestamp); ok {
				v.obtained++
				break
			}
			if now >= due+sim.Time(tGiveUp)*ch.Duration {
				v.lost++
				break
			}
			th.Sleep(2 * time.Millisecond)
		}
	}
	v.sess.Close(th)
}

func allViewersDone(vs []*viewer) bool {
	for _, v := range vs {
		if !v.done {
			return false
		}
	}
	return true
}

// drive runs the cluster until done reports true or the horizon passes.
// done is re-evaluated each interval: the viewer set fills in from the
// control thread after the engine starts.
func drive(c *Cluster, done func() bool, horizon sim.Time) {
	for ran := sim.Time(0); ran < horizon; ran += tInterval {
		c.Run(tInterval)
		if done() {
			break
		}
	}
	c.Run(time.Second) // cool-down
}

// TestPlacementAndRing: the first open of a title goes to its ring owner;
// subsequent opens of the same title land on the same node (placement) and
// ride its multicast group or interval cache; distinct cold titles spread
// over the ring.
func TestPlacementAndRing(t *testing.T) {
	movies := testMovies(4, 6*time.Second)
	var c *Cluster
	var sessions []*Session
	var hotShared []bool // mcast/cache attach, sampled at open time (idle leases reap later)
	var openErr error
	c = New(testConfig(4, 101, movies), func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			for i := 0; i < 3; i++ { // 3 viewers of the same hot title
				s, err := c.Open(th, "/m00", core.OpenOptions{})
				if err != nil {
					openErr = err
					return
				}
				sessions = append(sessions, s)
				hotShared = append(hotShared, s.MulticastMember() || s.CacheBacked())
				th.Sleep(200 * time.Millisecond) // inside the batch window
			}
			for i := 1; i < 4; i++ { // cold tail: one viewer per remaining title
				s, err := c.Open(th, fmt.Sprintf("/m%02d", i), core.OpenOptions{})
				if err != nil {
					openErr = err
					return
				}
				sessions = append(sessions, s)
			}
		})
	})
	c.Run(5 * time.Second)
	if openErr != nil {
		t.Fatalf("open: %v", openErr)
	}
	if len(sessions) != 6 {
		t.Fatalf("opened %d sessions, want 6", len(sessions))
	}
	hot := sessions[0].NodeID()
	for i, s := range sessions[:3] {
		if s.NodeID() != hot {
			t.Errorf("hot viewer %d on node %d, want the leader's node %d", i, s.NodeID(), hot)
		}
	}
	if !hotShared[1] {
		t.Errorf("second hot viewer rides neither multicast nor cache")
	}
	if !hotShared[2] {
		t.Errorf("third hot viewer rides neither multicast nor cache")
	}
	st := c.Stats()
	if st.PlacementOpens < 2 {
		t.Errorf("PlacementOpens = %d, want >= 2", st.PlacementOpens)
	}
	if st.RingOpens < 3 {
		t.Errorf("RingOpens = %d, want >= 3 (hot leader + cold titles)", st.RingOpens)
	}
	// Cold titles spread: not everything on the hot node.
	spread := map[int]bool{}
	for _, s := range sessions[3:] {
		spread[s.NodeID()] = true
	}
	if len(spread) < 2 {
		t.Errorf("cold tail all landed on one node; ring not spreading")
	}
	// Conservation: every session is routed to exactly one node.
	total := 0
	for i := 0; i < c.Nodes(); i++ {
		total += c.NodeSessions(i)
	}
	if total != len(sessions) {
		t.Errorf("session registry counts %d, want %d", total, len(sessions))
	}
	if c.Movie("/m00") == nil || c.Movie("/nope") != nil {
		t.Errorf("Movie lookup broken")
	}
}

// TestRingOwnerSkipsUnusable: the ring walk passes dead and draining
// nodes; with every node unusable there is no owner and open fails typed.
func TestRingOwnerSkipsUnusable(t *testing.T) {
	movies := testMovies(1, 2*time.Second)
	var c *Cluster
	c = New(testConfig(3, 102, movies), func(c *Cluster) {})
	c.Run(2 * time.Second)
	owner := c.ringOwner("/m00", nil)
	if owner == nil {
		t.Fatal("no ring owner on a healthy cluster")
	}
	owner.health = NodeDead
	second := c.ringOwner("/m00", nil)
	if second == nil || second == owner {
		t.Fatalf("ring walk did not skip the dead owner")
	}
	second.draining = true
	third := c.ringOwner("/m00", nil)
	if third == nil || third == owner || third == second {
		t.Fatalf("ring walk did not skip the draining node")
	}
	third.health = NodeSuspect
	if c.ringOwner("/m00", nil) != nil {
		t.Fatalf("ring owner found with no usable node")
	}
	// And the route ladder agrees: no candidates, typed refusal.
	var openErr error
	c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		_, openErr = c.Open(th, "/m00", core.OpenOptions{})
	})
	c.Run(time.Second)
	var fe *FailoverError
	if !errors.As(openErr, &fe) || !errors.Is(openErr, ErrFailover) {
		t.Fatalf("open with no usable node = %v, want *FailoverError", openErr)
	}
	if fe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", fe.RetryAfter)
	}
}

// TestKillOneNodeFailover: killing a node mid-play fails every viewer it
// served over to a surviving replica at its stamp point — dead-name
// detection, jittered reopen, zero frames lost (the old buffer's runway
// bridges the replacement's initial delay).
func TestKillOneNodeFailover(t *testing.T) {
	movies := testMovies(2, 6*time.Second)
	var events []NodeHealthEvent
	var vs []*viewer
	var c *Cluster
	c = New(testConfig(2, 103, movies), func(c *Cluster) {
		c.OnNodeHealth = func(ev NodeHealthEvent) { events = append(events, ev) }
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			for i := 0; i < 2; i++ { // two viewers of the same title: leader + member
				s, err := c.Open(th, "/m00", core.OpenOptions{})
				if err != nil {
					t.Errorf("open viewer %d: %v", i, err)
					return
				}
				v := &viewer{sess: s, info: c.Movie("/m00")}
				vs = append(vs, v)
				c.k.NewThread(fmt.Sprintf("viewer%d", i), rtm.PrioRTLow, 0, func(vt *rtm.Thread) {
					v.play(c, vt)
				})
				th.Sleep(200 * time.Millisecond)
			}
			victim := vs[0].sess.NodeID()
			th.SleepUntil(c.k.Now() + 2500*time.Millisecond)
			c.NodeCRAS(victim).Shutdown()
		})
	})
	drive(c, func() bool { return len(vs) == 2 && allViewersDone(vs) }, 30*time.Second)
	if !allViewersDone(vs) {
		t.Fatal("viewers never finished")
	}
	deadSeen := false
	for _, ev := range events {
		if ev.To == NodeDead && ev.Cause == health.DeadName {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Errorf("no dead-name death pronounced; events: %v", events)
	}
	st := c.Stats()
	if st.Failovers != 2 {
		t.Errorf("Failovers = %d, want 2", st.Failovers)
	}
	for i, v := range vs {
		if v.lost != 0 {
			t.Errorf("viewer %d lost %d frames across the failover", i, v.lost)
		}
		if v.obtained != len(v.info.Chunks) {
			t.Errorf("viewer %d obtained %d of %d", i, v.obtained, len(v.info.Chunks))
		}
		if v.sess.Gen() == 0 {
			t.Errorf("viewer %d was never re-placed", i)
		}
	}
}

// TestWedgeDetectedByHeartbeat: a node whose scheduler freezes while its
// request manager keeps answering is caught by the missed-cycle ladder —
// Suspect, then Dead — and its viewers fail over. The server must NOT be
// Stopped when pronounced: that is exactly what distinguishes the
// heartbeat path from the dead-name path.
func TestWedgeDetectedByHeartbeat(t *testing.T) {
	movies := testMovies(1, 6*time.Second)
	cfg := testConfig(2, 104, movies)
	cfg.DeadAfter = 3
	var events []NodeHealthEvent
	stoppedAtDead := true
	var vs []*viewer
	var c *Cluster
	c = New(cfg, func(c *Cluster) {
		c.OnNodeHealth = func(ev NodeHealthEvent) {
			events = append(events, ev)
			if ev.To == NodeDead {
				stoppedAtDead = c.nodes[ev.ID].m.CRAS.Stopped()
			}
		}
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			s, err := c.Open(th, "/m00", core.OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			v := &viewer{sess: s, info: c.Movie("/m00")}
			vs = append(vs, v)
			c.k.NewThread("viewer", rtm.PrioRTLow, 0, func(vt *rtm.Thread) { v.play(c, vt) })
			victim := s.NodeID()
			th.SleepUntil(c.k.Now() + 2500*time.Millisecond)
			c.NodeCRAS(victim).Wedge()
		})
	})
	drive(c, func() bool { return len(vs) == 1 && allViewersDone(vs) }, 30*time.Second)
	var suspect, dead bool
	for _, ev := range events {
		if ev.To == NodeSuspect {
			suspect = true
		}
		if ev.To == NodeDead {
			if !suspect {
				t.Errorf("Dead pronounced before Suspect")
			}
			if ev.Cause != health.MissedHeartbeats {
				t.Errorf("death cause = %v, want missed cycle heartbeats", ev.Cause)
			}
			dead = true
		}
	}
	if !suspect || !dead {
		t.Fatalf("ladder never reached Dead: events %v", events)
	}
	if stoppedAtDead {
		t.Errorf("server was Stopped at pronouncement — dead-name beat the heartbeat, wedge not exercised")
	}
	st := c.Stats()
	if st.NodesSuspected == 0 || st.NodesDead == 0 {
		t.Errorf("stats: suspected=%d dead=%d", st.NodesSuspected, st.NodesDead)
	}
	if st.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", st.Failovers)
	}
	if !allViewersDone(vs) {
		t.Fatal("viewer never finished")
	}
}

// TestWedgeRecovery: a node that resumes its cycles while merely Suspect
// recovers to Healthy; nobody is failed over.
func TestWedgeRecovery(t *testing.T) {
	movies := testMovies(1, 4*time.Second)
	cfg := testConfig(2, 105, movies)
	cfg.DeadAfter = 8
	var events []NodeHealthEvent
	var c *Cluster
	c = New(cfg, func(c *Cluster) {
		c.OnNodeHealth = func(ev NodeHealthEvent) { events = append(events, ev) }
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			srv := c.NodeCRAS(0)
			th.Sleep(time.Second)
			srv.Wedge()
			th.Sleep(2 * time.Second) // past suspectAfter, short of DeadAfter
			srv.Unwedge()
		})
	})
	c.Run(6 * time.Second)
	var suspect, healthy bool
	for _, ev := range events {
		if ev.To == NodeSuspect {
			suspect = true
		}
		if ev.To == NodeHealthy && ev.From == NodeSuspect {
			healthy = true
		}
		if ev.To == NodeDead {
			t.Errorf("node pronounced dead during a recoverable wedge")
		}
	}
	if !suspect || !healthy {
		t.Fatalf("no Suspect→Healthy recovery: events %v", events)
	}
	st := c.Stats()
	if st.NodesRecovered != 1 {
		t.Errorf("NodesRecovered = %d, want 1", st.NodesRecovered)
	}
	if st.Failovers != 0 {
		t.Errorf("Failovers = %d for a recovered node, want 0", st.Failovers)
	}
	if c.NodeHealthOf(0) != NodeHealthy {
		t.Errorf("node health = %v after recovery", c.NodeHealthOf(0))
	}
}

// TestDrainNodeMigratesZeroLoss: DrainNode moves every stream to peers and
// rolls the node with zero frames lost cluster-wide. The drained node ends
// Stopped and its death pronouncement finds no sessions left to fail over.
func TestDrainNodeMigratesZeroLoss(t *testing.T) {
	movies := testMovies(2, 6*time.Second)
	var vs []*viewer
	var drainErr error
	drainDone := false
	var c *Cluster
	var victim int
	c = New(testConfig(2, 106, movies), func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			for i := 0; i < 2; i++ {
				s, err := c.Open(th, "/m00", core.OpenOptions{})
				if err != nil {
					t.Errorf("open viewer %d: %v", i, err)
					return
				}
				v := &viewer{sess: s, info: c.Movie("/m00")}
				vs = append(vs, v)
				c.k.NewThread(fmt.Sprintf("viewer%d", i), rtm.PrioRTLow, 0, func(vt *rtm.Thread) {
					v.play(c, vt)
				})
				th.Sleep(200 * time.Millisecond)
			}
			victim = vs[0].sess.NodeID()
			th.SleepUntil(c.k.Now() + 2500*time.Millisecond)
			drainErr = c.DrainNode(th, victim, 10*time.Second)
			drainDone = true
		})
	})
	drive(c, func() bool { return drainDone && len(vs) == 2 && allViewersDone(vs) }, 40*time.Second)
	if !drainDone {
		t.Fatal("DrainNode never returned")
	}
	if drainErr != nil {
		t.Fatalf("DrainNode: %v", drainErr)
	}
	if !c.NodeCRAS(victim).Stopped() {
		t.Errorf("drained node not stopped")
	}
	st := c.Stats()
	if st.Migrations != 2 {
		t.Errorf("Migrations = %d, want 2", st.Migrations)
	}
	if st.Failovers != 0 {
		t.Errorf("Failovers = %d during a planned drain, want 0", st.Failovers)
	}
	for i, v := range vs {
		if v.lost != 0 {
			t.Errorf("viewer %d lost %d frames across the drain", i, v.lost)
		}
		if v.sess.NodeID() == victim {
			t.Errorf("viewer %d still routed to the drained node", i)
		}
	}
	// Double drain and draining a dead node are refused.
	var again, deadDrain error
	c.k.NewThread("ctl2", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		again = c.DrainNode(th, victim, time.Second)
		deadDrain = c.DrainNode(th, 99, time.Second)
	})
	c.Run(3 * time.Second)
	if again == nil {
		t.Errorf("draining a dead node succeeded")
	}
	if deadDrain == nil {
		t.Errorf("draining a bogus node id succeeded")
	}
}

// TestSaturatedClusterHonestRetryAfter: when the cluster cannot place a
// viewer the refusal is a typed *FailoverError with RetryAfter > 0, and a
// displaced viewer stranded by saturation is re-admitted once capacity
// frees within its retry budget — the RetryAfter quote is honest.
func TestSaturatedClusterHonestRetryAfter(t *testing.T) {
	movies := testMovies(8, 6*time.Second)
	cfg := testConfig(2, 107, movies)
	cfg.Node.CRAS.BufferBudget = 600 << 10 // 3 plain ~200KB streams per node
	cfg.Node.CRAS.CacheBudget = 0
	cfg.Node.CRAS.BatchWindow = 0
	cfg.Node.CRAS.PrefixBudget = 0
	cfg.DegradedRate = 1 // disable reduced-rate re-admission: force the strand
	cfg.FailoverRetries = 3
	cfg.RetryAfter = time.Second
	var sessions []*Session
	var rejectErr error
	var c *Cluster
	c = New(cfg, func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			// Fill the cluster: distinct titles, no sharing to ride.
			for i := 0; i < len(movies); i++ {
				s, err := c.Open(th, movies[i].Path, core.OpenOptions{})
				if err != nil {
					rejectErr = err
					break
				}
				sessions = append(sessions, s)
			}
		})
	})
	c.Run(3 * time.Second)
	if rejectErr == nil {
		t.Fatalf("cluster admitted all %d viewers; budget not saturating", len(movies))
	}
	var fe *FailoverError
	if !errors.As(rejectErr, &fe) {
		t.Fatalf("saturated open = %v (%T), want *FailoverError", rejectErr, rejectErr)
	}
	if fe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", fe.RetryAfter)
	}
	if len(sessions) < 2 {
		t.Fatalf("only %d sessions admitted; cannot exercise failover", len(sessions))
	}
	st0 := c.Stats()
	if st0.OpenRejects == 0 {
		t.Errorf("OpenRejects = 0 after a refused open")
	}

	// Kill one node: its viewers cannot fit on the saturated survivor, so
	// they strand with the typed verdict; freeing a survivor session lets
	// one land within the retry budget.
	victim := sessions[0].NodeID()
	var victims, survivors []*Session
	for _, s := range sessions {
		if s.NodeID() == victim {
			victims = append(victims, s)
		} else {
			survivors = append(survivors, s)
		}
	}
	if len(victims) == 0 || len(survivors) == 0 {
		t.Fatalf("placement put everything on one node: %d victims, %d survivors", len(victims), len(survivors))
	}
	c.k.NewThread("ctl2", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		c.NodeCRAS(victim).Shutdown()
		th.Sleep(1500 * time.Millisecond) // let the first full-rate attempts strand
		if err := survivors[0].Close(th); err != nil {
			t.Errorf("close survivor: %v", err)
		}
	})
	c.Run(10 * time.Second)
	st := c.Stats()
	if st.FailoversStranded == 0 {
		t.Errorf("no viewer stranded on a saturated cluster")
	}
	strandedSeen := false
	for _, s := range victims {
		if s.Refused() {
			strandedSeen = true
			if s.Stranded() == nil || s.Stranded().RetryAfter <= 0 {
				t.Errorf("refused viewer carries no honest RetryAfter verdict")
			}
		}
	}
	if st.Failovers == 0 {
		t.Errorf("no stranded viewer landed after capacity freed; RetryAfter was dishonest")
	}
	if len(victims) > 1 && !strandedSeen && st.FailoversRefused == 0 {
		t.Logf("note: all %d victims eventually placed", len(victims))
	}
}

// TestFailoverErrorShape: the typed error unwraps to the sentinel and
// formats both the fresh-open and the displaced forms.
func TestFailoverErrorShape(t *testing.T) {
	fresh := &FailoverError{RetryAfter: time.Second, Reason: "full"}
	disp := &FailoverError{Node: "n1", RetryAfter: 2 * time.Second, Reason: "full"}
	if !errors.Is(fresh, ErrFailover) || !errors.Is(disp, ErrFailover) {
		t.Fatal("FailoverError does not unwrap to ErrFailover")
	}
	if fresh.Error() == disp.Error() {
		t.Errorf("fresh and displaced errors format identically")
	}
	if got, want := NodeHealthy.String(), "healthy"; got != want {
		t.Errorf("NodeHealthy = %q", got)
	}
	if NodeSuspect.String() != "suspect" || NodeDead.String() != "dead" {
		t.Errorf("health strings wrong")
	}
	if NodeHealth(7).String() == "" {
		t.Errorf("out-of-range health formats empty")
	}
}

// TestDegradedRateReadmission: when the survivors cannot fit a displaced
// viewer at full rate, failover re-admits it at the configured reduced
// delivered rate instead of stranding it. The replacement keeps the
// playback clock at full pace and skips frames — the viewer's timeline is
// never stretched, and every frame the node promises still arrives.
func TestDegradedRateReadmission(t *testing.T) {
	movies := testMovies(2, 6*time.Second)
	cfg := testConfig(2, 108, movies)
	// One full-rate ~200KB stream fits per node; a second full-rate stream
	// (400000 bytes) does not, but full + 0.75-delivered (~353KB) does —
	// the delivered-rate thinning scales the same B_i term the admission
	// test charges.
	cfg.Node.CRAS.BufferBudget = 360 << 10
	cfg.Node.CRAS.CacheBudget = 0
	cfg.Node.CRAS.BatchWindow = 0
	cfg.Node.CRAS.PrefixBudget = 0
	cfg.DegradedRate = 0.75
	var c *Cluster
	var vs []*viewer
	c = New(cfg, func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			for i := 0; i < 2; i++ {
				s, err := c.Open(th, movies[i].Path, core.OpenOptions{})
				if err != nil {
					t.Errorf("open %d: %v", i, err)
					return
				}
				v := &viewer{sess: s, info: movies[i].Info}
				vs = append(vs, v)
				c.k.NewThread(fmt.Sprintf("viewer%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
					v.play(c, th)
				})
			}
			if vs[0].sess.NodeID() == vs[1].sess.NodeID() {
				t.Errorf("capacity did not spread the two streams over two nodes")
				return
			}
			victim := vs[1].sess.NodeID()
			th.SleepUntil(c.k.Now() + 2500*time.Millisecond)
			c.NodeCRAS(victim).Shutdown()
		})
	})
	drive(c, func() bool { return len(vs) == 2 && allViewersDone(vs) }, 40*time.Second)
	st := c.Stats()
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if st.FailoversReduced != 1 {
		t.Errorf("FailoversReduced = %d, want 1 (full rate cannot fit beside the survivor)", st.FailoversReduced)
	}
	moved := vs[1]
	if moved.sess.Reduced() != 1 {
		t.Errorf("Reduced() = %d, want 1", moved.sess.Reduced())
	}
	if got := moved.sess.DeliveredRate(); got != 0.75 {
		t.Errorf("DeliveredRate after degraded re-admit = %v, want 0.75", got)
	}
	if got := moved.sess.Rate(); got != 0.75 {
		t.Errorf("effective session rate after degraded re-admit = %v, want 0.75", got)
	}
	// The thinning skips frames instead of stretching the timeline: the
	// moved viewer finishes on schedule, misses some frames past the
	// failover point (roughly the thinned quarter of the remainder), and
	// the frame accounting conserves.
	total := len(moved.info.Chunks)
	if moved.obtained+moved.lost != total {
		t.Errorf("moved viewer accounting leaked: obtained %d + lost %d != %d",
			moved.obtained, moved.lost, total)
	}
	if moved.lost == 0 {
		t.Errorf("moved viewer missed no frames; delivered-rate thinning never engaged")
	}
	if moved.lost > total*2/5 {
		t.Errorf("moved viewer lost %d of %d frames; thinning should only skip ~25%% of the remainder",
			moved.lost, total)
	}
	if vs[0].lost != 0 {
		t.Errorf("undisplaced viewer lost %d frames", vs[0].lost)
	}
	if vs[0].obtained != len(vs[0].info.Chunks) {
		t.Errorf("undisplaced viewer obtained %d of %d frames", vs[0].obtained, len(vs[0].info.Chunks))
	}
	if vs[0].sess.Gen() != 0 {
		t.Errorf("undisplaced viewer moved (gen %d)", vs[0].sess.Gen())
	}
}

// TestClusterProperties: randomized trials over node counts, title sets,
// viewer populations and one injected node fault per trial. Invariants:
// every viewer terminates; frame accounting conserves (obtained + lost
// covers the whole title, refused viewers included); quiet and drained
// clusters lose zero frames; the session registry drains to zero once
// every viewer closes. Seed overridable with CLUSTER_PROP_SEED.
func TestClusterProperties(t *testing.T) {
	seed := int64(20260807)
	if env := os.Getenv("CLUSTER_PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CLUSTER_PROP_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("property seed %d (override with CLUSTER_PROP_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 5; trial++ {
		trial := trial
		nodes := 2 + rng.Intn(3)
		titles := 2 + rng.Intn(3)
		dur := sim.Time(4+rng.Intn(3)) * time.Second
		nview := 3 + rng.Intn(4)
		fault := rng.Intn(4) // 0 none, 1 kill, 2 wedge, 3 drain
		faultAt := sim.Time(1500+rng.Intn(1500)) * time.Millisecond
		picks := make([]int, nview)
		stagger := make([]sim.Time, nview)
		for i := range picks {
			picks[i] = rng.Intn(titles)
			stagger[i] = sim.Time(rng.Intn(300)) * time.Millisecond
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			movies := testMovies(titles, dur)
			cfg := testConfig(nodes, seed+int64(trial)*7919, movies)
			cfg.JitterSeed = seed + int64(trial)
			var c *Cluster
			var vs []*viewer
			drainErr := error(nil)
			drainDone := fault != 3
			c = New(cfg, func(c *Cluster) {
				c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
					for i := 0; i < nview; i++ {
						th.Sleep(stagger[i])
						s, err := c.Open(th, movies[picks[i]].Path, core.OpenOptions{})
						if err != nil {
							t.Errorf("open viewer %d: %v", i, err)
							continue
						}
						v := &viewer{sess: s, info: movies[picks[i]].Info}
						vs = append(vs, v)
						c.k.NewThread(fmt.Sprintf("viewer%d", i), rtm.PrioRTLow, 0, func(th *rtm.Thread) {
							s.Start(th)
							v.play(c, th)
						})
					}
				})
				c.k.NewThread("fault", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
					th.SleepUntil(faultAt)
					switch fault {
					case 1:
						c.NodeCRAS(0).Shutdown()
					case 2:
						c.NodeCRAS(0).Wedge()
					case 3:
						drainErr = c.DrainNode(th, 0, 20*time.Second)
						drainDone = true
					}
				})
			})
			drive(c, func() bool { return drainDone && len(vs) > 0 && allViewersDone(vs) }, 60*time.Second)
			if !allViewersDone(vs) {
				t.Fatalf("viewers never finished (fault %d at %v)", fault, faultAt)
			}
			if fault == 3 {
				if drainErr != nil {
					t.Errorf("drain: %v", drainErr)
				}
				if !c.NodeCRAS(0).Stopped() {
					t.Errorf("drained node still running")
				}
			}
			for i, v := range vs {
				if got, want := v.obtained+v.lost, len(v.info.Chunks); got != want {
					t.Errorf("viewer %d accounting: obtained %d + lost %d != %d chunks",
						i, v.obtained, v.lost, want)
				}
				if (fault == 0 || fault == 3) && v.lost != 0 {
					t.Errorf("viewer %d lost %d frames with no unplanned fault", i, v.lost)
				}
				if v.sess.Refused() && v.sess.Stranded() == nil {
					t.Errorf("viewer %d refused without a stranded verdict", i)
				}
			}
			if fault == 1 && c.NodeHealthOf(0) != NodeDead {
				t.Errorf("killed node never pronounced dead")
			}
			total := 0
			for i := 0; i < c.Nodes(); i++ {
				total += c.NodeSessions(i)
			}
			if total != 0 {
				t.Errorf("session registry holds %d sessions after every viewer closed", total)
			}
		})
	}
}
