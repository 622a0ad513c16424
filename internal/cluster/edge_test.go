package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/rtm"
)

// TestAccessorsAndHelpers exercises the session and cluster accessors and
// the error-classification helpers against a one-node cluster.
func TestAccessorsAndHelpers(t *testing.T) {
	movies := testMovies(1, 2*time.Second)
	var c *Cluster
	var s *Session
	c = New(testConfig(1, 120, movies), func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			var err error
			s, err = c.Open(th, "/m00", core.OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if err := s.Start(th); err != nil {
				t.Errorf("start: %v", err)
			}
			th.Sleep(time.Second)
			if s.LogicalNow() < 0 {
				t.Errorf("LogicalNow = %v before stop", s.LogicalNow())
			}
			if err := s.Stop(th); err != nil {
				t.Errorf("stop: %v", err)
			}
			if err := s.Close(th); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := s.Close(th); err != nil {
				t.Errorf("second close not idempotent: %v", err)
			}
		})
	})
	c.Run(3 * time.Second)
	if c.Err() != nil {
		t.Fatalf("Err = %v", c.Err())
	}
	if c.Engine() == nil || c.Kernel() == nil || c.Machine(0) == nil {
		t.Fatalf("nil accessor on a booted cluster")
	}
	if s.Path() != "/m00" || s.NodeName() != "n0" {
		t.Errorf("Path/NodeName = %q/%q", s.Path(), s.NodeName())
	}
	if s.Orphaned() || s.Stranded() != nil || s.Handle() == nil {
		t.Errorf("fresh session reports orphaned=%v stranded=%v", s.Orphaned(), s.Stranded())
	}
	if effectiveRate(0) != 1 || effectiveRate(0.5) != 0.5 {
		t.Errorf("effectiveRate broken")
	}
	if hint, ok := capacityError(core.ErrDraining); !ok || hint != 0 {
		t.Errorf("ErrDraining not classified as capacity")
	}
	if hint, ok := capacityError(&core.OverloadError{RetryAfter: time.Second}); !ok || hint != time.Second {
		t.Errorf("OverloadError hint = %v, %v", hint, ok)
	}
	if _, ok := capacityError(errors.New("bad path")); ok {
		t.Errorf("generic error classified as capacity")
	}
	if hint, ok := capacityError(&FailoverError{RetryAfter: 2 * time.Second}); !ok || hint != 2*time.Second {
		t.Errorf("FailoverError hint = %v, %v", hint, ok)
	}
}

// TestBootErrorSurfaces: a node whose machine cannot boot (parity volume
// over two disks) never reports ready; Err returns the setup error and Run
// panics with it rather than letting the caller drive a half-built
// cluster.
func TestBootErrorSurfaces(t *testing.T) {
	cfg := testConfig(2, 121, testMovies(1, time.Second))
	cfg.Node.Disks = 2
	cfg.Node.Parity = true // parity needs >= 3 members: boot fails
	c := New(cfg, func(c *Cluster) {
		t.Errorf("ready invoked on a cluster with a failed node")
	})
	if c.Err() == nil {
		t.Fatalf("Err = nil for an unbootable node")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Run did not panic on the boot error")
		}
	}()
	c.Run(time.Second)
}

// TestFailoverSkipsFinishedAndClosed: when a node dies, closed sessions
// are not resurrected, and a session whose viewer already consumed the
// whole title is left alone (nothing to re-establish) — neither counts as
// a failover.
func TestFailoverSkipsFinishedAndClosed(t *testing.T) {
	movies := testMovies(1, 3*time.Second)
	var c *Cluster
	var watched, dropped *Session
	played := 0
	c = New(testConfig(2, 122, movies), func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			var err error
			watched, err = c.Open(th, "/m00", core.OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			dropped, err = c.Open(th, "/m00", core.OpenOptions{})
			if err != nil {
				t.Errorf("open second: %v", err)
				return
			}
			if dropped.NodeID() != watched.NodeID() {
				t.Errorf("placement split a hot title across nodes")
			}
			dropped.Close(th)
			watched.Start(th)
			info := movies[0].Info
			for i := range info.Chunks {
				ch := info.Chunks[i]
				for {
					due := watched.ClockStartsAt(ch.Timestamp)
					now := c.k.Now()
					if due >= 0 && now < due {
						th.Sleep(due - now)
						continue
					}
					if _, ok := watched.Get(ch.Timestamp); ok {
						played++
						break
					}
					th.Sleep(5 * time.Millisecond)
				}
			}
			// The title is fully consumed but the session stays open; now
			// kill its node.
			c.NodeCRAS(watched.NodeID()).Shutdown()
		})
	})
	c.Run(12 * time.Second)
	if played != len(movies[0].Info.Chunks) {
		t.Fatalf("played %d of %d chunks", played, len(movies[0].Info.Chunks))
	}
	st := c.Stats()
	if st.NodesDead != 1 {
		t.Fatalf("NodesDead = %d, want 1", st.NodesDead)
	}
	if st.Failovers != 0 || st.FailoversStranded != 0 {
		t.Errorf("failover resurrected a finished or closed session: %+v", st)
	}
	if watched.Orphaned() {
		t.Errorf("finished session left orphaned")
	}
	if watched.Gen() != 0 {
		t.Errorf("finished session was re-placed (gen %d)", watched.Gen())
	}
}

// TestDrainMigrationFailure: draining a node whose peers cannot admit the
// displaced streams (even at reduced rate) records the failures, strands
// the sessions with an honest verdict, and still rolls the node down —
// the drain-deadline eviction is the backstop.
func TestDrainMigrationFailure(t *testing.T) {
	movies := testMovies(6, 6*time.Second)
	cfg := testConfig(2, 123, movies)
	cfg.Node.CRAS.BufferBudget = 600 << 10 // 3 plain ~200KB streams per node
	cfg.Node.CRAS.CacheBudget = 0
	cfg.Node.CRAS.BatchWindow = 0
	cfg.Node.CRAS.PrefixBudget = 0
	var c *Cluster
	var sessions []*Session
	var drainErr error
	drainDone := false
	c = New(cfg, func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			// Fill both nodes with unstarted sessions: 6 distinct titles, 3
			// per node by capacity.
			for i := range movies {
				s, err := c.Open(th, movies[i].Path, core.OpenOptions{})
				if err != nil {
					t.Errorf("open %d: %v", i, err)
					return
				}
				sessions = append(sessions, s)
			}
			drainErr = c.DrainNode(th, 0, 5*time.Second)
			drainDone = true
		})
	})
	drive(c, func() bool { return drainDone }, 30*time.Second)
	if c.NodeSessions(0) == 0 {
		t.Skip("capacity routing left node 0 empty; nothing to exercise")
	}
	if drainErr != nil {
		t.Errorf("drain: %v (deadline eviction should still stop the node)", drainErr)
	}
	if !c.NodeCRAS(0).Stopped() {
		t.Errorf("drained node still running")
	}
	st := c.Stats()
	if st.MigrationsFailed == 0 {
		t.Errorf("MigrationsFailed = 0 draining onto a full peer")
	}
	if st.Migrations != 0 {
		t.Errorf("Migrations = %d, want 0: the peer had no room", st.Migrations)
	}
	strandedSeen := false
	for _, s := range sessions {
		if s.Stranded() != nil {
			strandedSeen = true
			if s.Stranded().RetryAfter <= 0 {
				t.Errorf("stranded verdict quotes RetryAfter %v", s.Stranded().RetryAfter)
			}
		}
	}
	if !strandedSeen {
		t.Errorf("no session carries a stranded verdict after failed migrations")
	}
}

// TestDrainRaceDestinationDies: a second node dying mid-drain — after the
// replacement stream was opened on it but before the handover swap — must
// not strand the migrating viewer on a dead handle. The swap notices the
// death and re-places the stream on the remaining survivor, still with zero
// frames lost.
func TestDrainRaceDestinationDies(t *testing.T) {
	movies := testMovies(1, 6*time.Second)
	cfg := testConfig(3, 125, movies)
	var c *Cluster
	var v *viewer
	var drainErr error
	drainDone := false
	victim, dest := -1, -1
	c = New(cfg, func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			s, err := c.Open(th, "/m00", core.OpenOptions{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			v = &viewer{sess: s, info: c.Movie("/m00")}
			c.k.NewThread("viewer", rtm.PrioRTLow, 0, func(vt *rtm.Thread) { v.play(c, vt) })
			victim = s.NodeID()
			th.SleepUntil(c.k.Now() + 2500*time.Millisecond)
			c.k.NewThread("killer", rtm.PrioRTLow, 0, func(kt *rtm.Thread) {
				// Fire inside the drain's anchor wait: the replacement is
				// open on the migration destination but not yet swapped in.
				kt.Sleep(time.Second)
				if err := c.DrainNode(kt, victim, time.Second); err == nil {
					t.Error("draining an already-draining node succeeded")
				}
				d := c.ringOwner("/m00", c.nodes[victim])
				if d == nil {
					t.Error("no migration destination to kill")
					return
				}
				dest = d.id
				c.NodeCRAS(dest).Shutdown()
			})
			drainErr = c.DrainNode(th, victim, 10*time.Second)
			drainDone = true
		})
	})
	drive(c, func() bool { return drainDone && v != nil && v.done }, 40*time.Second)
	if !drainDone {
		t.Fatal("DrainNode never returned")
	}
	if drainErr != nil {
		t.Fatalf("DrainNode: %v", drainErr)
	}
	if dest < 0 {
		t.Fatal("mid-drain kill never fired")
	}
	if !c.NodeCRAS(victim).Stopped() {
		t.Errorf("drained node still running")
	}
	st := c.Stats()
	if st.Migrations != 1 || st.MigrationsFailed != 0 {
		t.Errorf("Migrations = %d, MigrationsFailed = %d; want 1, 0 (re-place on the survivor)",
			st.Migrations, st.MigrationsFailed)
	}
	if c.NodeHealthOf(dest) != NodeDead {
		t.Errorf("killed destination %d is %v, want dead", dest, c.NodeHealthOf(dest))
	}
	if st.Failovers != 0 {
		t.Errorf("Failovers = %d; the dead destination held no registered session", st.Failovers)
	}
	if !v.done {
		t.Fatal("viewer never finished")
	}
	if v.lost != 0 || v.obtained != len(v.info.Chunks) {
		t.Errorf("viewer obtained %d, lost %d of %d frames across the raced drain",
			v.obtained, v.lost, len(v.info.Chunks))
	}
	if got := v.sess.NodeID(); got == victim || got == dest {
		t.Errorf("viewer ended on node %d (victim %d, dead destination %d)", got, victim, dest)
	}
	if v.sess.Gen() != 1 {
		t.Errorf("Gen = %d, want 1 (one handover)", v.sess.Gen())
	}
}

// TestWhiteboxEdges pins the defensive corners the black-box suite cannot
// reach: the single-node default, idempotent death pronouncements, the
// no-op health transition, the heartbeat catching a stopped server that the
// dead-name notification missed, and the nil guards on the registry.
func TestWhiteboxEdges(t *testing.T) {
	movies := testMovies(1, time.Second)
	cfg := testConfig(0, 126, movies) // Nodes <= 0 defaults to a 1-node cluster
	c := New(cfg, func(c *Cluster) {})
	if c.Nodes() != 1 {
		t.Fatalf("Nodes = %d, want default 1", c.Nodes())
	}
	c.Run(time.Second)
	n := c.nodes[0]
	fired := false
	c.OnNodeHealth = func(NodeHealthEvent) { fired = true }
	c.setHealth(n, NodeHealthy, health.None)
	if fired {
		t.Errorf("no-op health transition fired an event")
	}
	// Pronouncing a dead node dead again is idempotent: the dead-name
	// notification and the heartbeat ladder race to the same verdict.
	c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
		c.NodeCRAS(0).Shutdown()
	})
	c.Run(time.Second)
	c.nodeDead(n, health.DeadName)
	if got := c.Stats().NodesDead; got != 1 {
		t.Errorf("NodesDead = %d after a double pronouncement, want 1", got)
	}
	// The heartbeat also catches a stopped server whose dead-name
	// notification it lost the race to observe.
	n.health = NodeSuspect
	c.heartbeatStep()
	c.applyTransitions()
	if n.health != NodeDead {
		t.Errorf("heartbeat left a stopped server %v, want dead", n.health)
	}
	// Registry guards: an empty ring has no owner, and deregistering a
	// session that was never placed is harmless.
	empty := &Cluster{}
	if empty.ringOwner("/x", nil) != nil {
		t.Errorf("empty ring produced an owner")
	}
	c.deregister(&Session{c: c, path: "/m00"})
	// ignoreDown swallows only the server-death race, nothing else.
	s := &Session{}
	if s.ignoreDown(core.ErrServerDown) != nil {
		t.Errorf("ErrServerDown not swallowed")
	}
	if s.ignoreDown(errors.New("real failure")) == nil {
		t.Errorf("a real failure was swallowed")
	}
}

// TestOpenUnknownTitle: the front door rejects a path no node stores
// without burning an admission attempt.
func TestOpenUnknownTitle(t *testing.T) {
	movies := testMovies(1, time.Second)
	var openErr error
	c := New(testConfig(1, 124, movies), func(c *Cluster) {
		c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			_, openErr = c.Open(th, "/missing", core.OpenOptions{})
		})
	})
	c.Run(2 * time.Second)
	if openErr == nil {
		t.Fatalf("open of an unknown title succeeded")
	}
	if errors.Is(openErr, ErrFailover) {
		t.Errorf("unknown title classified as saturation: %v", openErr)
	}
	if c.Stats().Opens != 1 {
		t.Errorf("Opens = %d, want 1", c.Stats().Opens)
	}
}
