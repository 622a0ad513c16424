package chaos

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// clusterPlayer is one viewer against the sharded front door. It mirrors
// playerState one layer up: deadlines are recomputed every wait step, so a
// mid-play failover (which re-anchors the clock on the replacement node)
// turns into waiting, not loss, and a refused viewer forfeits the rest of
// its title honestly.
type clusterPlayer struct {
	sess     *cluster.Session
	path     string
	info     *media.StreamInfo
	shared   bool // rode a multicast group or the interval cache at open time
	obtained int
	lost     int
	done     bool
}

func (p *clusterPlayer) play(c *cluster.Cluster, th *rtm.Thread, res *Result) {
	defer func() { p.done = true }()
	if err := p.sess.Start(th); err != nil {
		res.violate("%s: start: %v", p.path, err)
		p.lost = len(p.info.Chunks)
		return
	}
	for i := range p.info.Chunks {
		ch := p.info.Chunks[i]
		for {
			if p.sess.Refused() {
				// The cluster gave this viewer its honest verdict: the rest
				// of the title is forfeit, and the accounting must say so.
				p.lost += len(p.info.Chunks) - i
				p.sess.Close(th)
				return
			}
			due := p.sess.ClockStartsAt(ch.Timestamp)
			now := c.Kernel().Now()
			if due < 0 {
				// Clock frozen (a wedged or dying node): the frame will not
				// come due here; count it lost at the frame cadence and let
				// the failover catch the session up.
				p.lost++
				th.Sleep(ch.Duration)
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
			if got, ok := p.sess.Get(ch.Timestamp); ok {
				if got.Timestamp > ch.Timestamp || ch.Timestamp >= got.Timestamp+got.Duration {
					res.violate("%s: frame %d: expired chunk delivered: asked t=%v, got [%v,%v)",
						p.path, i, ch.Timestamp, got.Timestamp, got.Timestamp+got.Duration)
				}
				p.obtained++
				break
			}
			if now >= due+sim.Time(playerGiveUp)*ch.Duration {
				p.lost++
				break
			}
			th.Sleep(2 * time.Millisecond)
		}
	}
	p.sess.Close(th)
}

// runCluster executes a Cluster scenario: Streams viewers split between one
// hot title (batched opens that ride a fan-out group or the interval cache)
// and distinct cold titles spread by the hash ring, with the scripted
// node-level fault landing on the hot viewers' node.
func runCluster(sc Scenario, res *Result) {
	dur := sc.MovieDur
	if dur == 0 {
		dur = movieDur
	}
	nHot := sc.Streams/2 + sc.Streams%2
	hotPath := "/h00"
	movies := []lab.Movie{{Path: hotPath, Info: media.MPEG1().Generate(hotPath, dur)}}
	paths := make([]string, sc.Streams)
	for i := range paths {
		if i < nHot {
			paths[i] = hotPath
			continue
		}
		paths[i] = fmt.Sprintf("/c%02d", i)
		movies = append(movies, lab.Movie{Path: paths[i], Info: media.MPEG1().Generate(paths[i], dur)})
	}

	cfg := cluster.Config{
		Nodes:      sc.Cluster,
		Seed:       sc.Seed,
		JitterSeed: sc.Seed,
		Node: lab.Setup{
			CRAS: core.Config{
				Interval:     interval,
				InitialDelay: initialDelay,
				BufferBudget: 64 << 20,
				CacheBudget:  32 << 20,
				BatchWindow:  time.Second,
				PrefixBudget: 16 << 20,
			},
		},
		Movies: movies,
	}

	var players []*clusterPlayer
	var clusterStart sim.Time
	stoppedAtDead := map[int]bool{}
	faultVictim, kill2Victim := -1, -1
	kill2HadSessions := false
	drainDone := sc.NodeDrainAt == 0

	var c *cluster.Cluster
	c = cluster.New(cfg, func(c *cluster.Cluster) {
		clusterStart = c.Engine().Now()
		c.OnNodeHealth = func(ev cluster.NodeHealthEvent) {
			res.NodeEvents = append(res.NodeEvents, ev)
			if ev.To == cluster.NodeDead {
				// Record whether the server was already stopped when the
				// ladder pronounced it: the wedge scenario demands it was
				// NOT — that is what distinguishes the heartbeat path from
				// the dead-name path.
				stoppedAtDead[ev.ID] = c.NodeCRAS(ev.ID).Stopped()
			}
		}
		c.Kernel().NewThread("chaos.ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			for i := 0; i < sc.Streams; i++ {
				s, err := c.Open(th, paths[i], core.OpenOptions{})
				if err != nil {
					res.violate("open %s: %v", paths[i], err)
					return
				}
				p := &clusterPlayer{
					sess: s, path: paths[i], info: c.Movie(paths[i]),
					// Sampled at open time: idle sharing is reaped later.
					shared: s.MulticastMember() || s.CacheBacked(),
				}
				players = append(players, p)
				c.Kernel().NewThread(fmt.Sprintf("chaos.view%d:%s", i, paths[i]), rtm.PrioRTLow, 0, func(vt *rtm.Thread) {
					p.play(c, vt, res)
				})
				if i+1 < nHot {
					th.Sleep(200 * time.Millisecond) // keep the hot opens inside the batch window
				}
			}
		})
		c.Kernel().NewThread("chaos.fault", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			faultAt := sc.NodeKillAt
			if sc.NodeWedgeAt > 0 {
				faultAt = sc.NodeWedgeAt
			}
			if sc.NodeDrainAt > 0 {
				faultAt = sc.NodeDrainAt
			}
			if faultAt == 0 {
				return
			}
			th.SleepUntil(clusterStart + faultAt)
			if len(players) == 0 {
				res.violate("node fault scheduled at %v but no viewer had opened", faultAt)
				return
			}
			victim := players[0].sess.NodeID()
			faultVictim = victim
			switch {
			case sc.NodeKillAt > 0:
				c.NodeCRAS(victim).Shutdown()
			case sc.NodeWedgeAt > 0:
				c.NodeCRAS(victim).Wedge()
			case sc.NodeDrainAt > 0:
				if sc.NodeKill2At > 0 {
					c.Kernel().NewThread("chaos.kill2", rtm.PrioRTLow, 0, func(kt *rtm.Thread) {
						kt.SleepUntil(clusterStart + sc.NodeKill2At)
						// Kill the busiest node that is not the one draining.
						second := -1
						for id := 0; id < c.Nodes(); id++ {
							if id == victim || c.NodeHealthOf(id) != cluster.NodeHealthy {
								continue
							}
							if second < 0 || c.NodeSessions(id) > c.NodeSessions(second) {
								second = id
							}
						}
						if second < 0 {
							res.violate("no second node available for the mid-drain kill")
							return
						}
						kill2Victim = second
						kill2HadSessions = c.NodeSessions(second) > 0
						c.NodeCRAS(second).Shutdown()
					})
				}
				if err := c.DrainNode(th, victim, sc.NodeDrainGrace); err != nil {
					res.violate("DrainNode(%d): %v", victim, err)
				}
				drainDone = true
			}
		})
	})

	horizon := dur + initialDelay + 30*time.Second
	for ran := sim.Time(0); ran < horizon; ran += interval {
		c.Run(interval)
		if drainDone && len(players) == sc.Streams && clusterAllDone(players) {
			break
		}
	}
	c.Run(3 * time.Second) // cool-down: let late failovers and the drain settle

	res.Elapsed = c.Engine().Now() - clusterStart
	res.ClusterStats = c.Stats()
	for _, p := range players {
		res.Players = append(res.Players, PlayerOutcome{
			Path: p.path, Frames: len(p.info.Chunks), Obtained: p.obtained, Lost: p.lost,
		})
	}
	res.checkCluster(sc, c, players, nHot, faultVictim, kill2Victim, kill2HadSessions, stoppedAtDead)
}

func clusterAllDone(players []*clusterPlayer) bool {
	for _, p := range players {
		if !p.done {
			return false
		}
	}
	return true
}

// checkCluster is the cluster campaign's invariant block.
func (r *Result) checkCluster(sc Scenario, c *cluster.Cluster, players []*clusterPlayer,
	nHot, faultVictim, kill2Victim int, kill2HadSessions bool, stoppedAtDead map[int]bool) {

	if len(players) != sc.Streams {
		r.violate("only %d of %d viewers opened", len(players), sc.Streams)
	}
	sharedSeen := false
	for i, p := range players {
		if !p.done {
			r.violate("%s: viewer %d never finished (failover lost it?)", p.path, i)
		}
		if got, want := p.obtained+p.lost, len(p.info.Chunks); got != want {
			r.violate("%s: viewer %d accounting: obtained %d + lost %d != %d frames",
				p.path, i, p.obtained, p.lost, want)
		}
		if p.obtained == 0 {
			r.violate("%s: viewer %d obtained no frames at all", p.path, i)
		}
		if sc.ZeroLoss && p.lost != 0 {
			r.violate("%s: viewer %d lost %d frames in a zero-loss scenario", p.path, i, p.lost)
		}
		if p.shared {
			sharedSeen = true
			// The headline contract: a viewer that rode RAM-shared capacity
			// (fan-out group or interval cache) loses nothing to a node
			// death or a planned drain. A wedge is exempt — frames freeze
			// in place until the heartbeat ladder can even see the failure.
			if sc.NodeWedgeAt == 0 && p.lost != 0 {
				r.violate("%s: cache/multicast-backed viewer %d lost %d frames", p.path, i, p.lost)
			}
		}
		if p.sess.Refused() {
			if p.sess.Stranded() == nil || p.sess.Stranded().RetryAfter <= 0 {
				r.violate("%s: viewer %d refused without an honest RetryAfter verdict", p.path, i)
			}
		} else if p.sess.Orphaned() {
			r.violate("%s: viewer %d left orphaned with no verdict", p.path, i)
		}
	}
	if nHot >= 2 && !sharedSeen {
		r.violate("no hot viewer rode the multicast group or interval cache")
	}

	st := r.ClusterStats
	deadEvents := map[int][]cluster.NodeHealthEvent{}
	for _, ev := range r.NodeEvents {
		deadEvents[ev.ID] = append(deadEvents[ev.ID], ev)
	}

	if sc.NodeKillAt > 0 {
		if faultVictim < 0 {
			r.violate("kill scripted but no victim selected")
			return
		}
		if st.NodesDead == 0 {
			r.violate("node killed at %v but NodesDead = 0", sc.NodeKillAt)
		}
		if st.Failovers == 0 {
			r.violate("node killed mid-play but no viewer failed over")
		}
		deadName := false
		for _, ev := range deadEvents[faultVictim] {
			if ev.To == cluster.NodeDead && ev.Cause == health.DeadName {
				deadName = true
			}
		}
		if !deadName {
			r.violate("killed node %d not pronounced via dead-name notification: %v",
				faultVictim, deadEvents[faultVictim])
		}
	}

	if sc.NodeWedgeAt > 0 {
		if faultVictim < 0 {
			r.violate("wedge scripted but no victim selected")
			return
		}
		suspect, dead := false, false
		for _, ev := range deadEvents[faultVictim] {
			if ev.To == cluster.NodeSuspect {
				suspect = true
			}
			if ev.To == cluster.NodeDead {
				if !suspect {
					r.violate("wedged node %d pronounced Dead before Suspect", faultVictim)
				}
				if ev.Cause != health.MissedHeartbeats {
					r.violate("wedged node %d death cause = %v, want missed cycle heartbeats",
						faultVictim, ev.Cause)
				}
				dead = true
			}
		}
		if !suspect || !dead {
			r.violate("wedged node %d never walked Suspect→Dead: %v", faultVictim, deadEvents[faultVictim])
		}
		if dead && stoppedAtDead[faultVictim] {
			r.violate("wedged node %d was Stopped at pronouncement — dead-name beat the heartbeat, gray failure not exercised", faultVictim)
		}
		if st.Failovers == 0 {
			r.violate("wedged node's viewers never failed over")
		}
	}

	if sc.NodeDrainAt > 0 {
		if faultVictim < 0 {
			r.violate("drain scripted but no victim selected")
			return
		}
		if !c.NodeCRAS(faultVictim).Stopped() {
			r.violate("drained node %d still running", faultVictim)
		}
		if st.DrainsStarted == 0 {
			r.violate("DrainsStarted = 0 after a scripted drain")
		}
		if st.Migrations == 0 {
			r.violate("drain moved no streams (Migrations = 0, MigrationsFailed = %d)", st.MigrationsFailed)
		}
		if sc.NodeKill2At > 0 {
			if kill2Victim < 0 {
				r.violate("mid-drain kill never fired")
			} else {
				if st.NodesDead == 0 {
					r.violate("second node killed mid-drain but NodesDead = 0")
				}
				if kill2HadSessions && st.Failovers == 0 {
					r.violate("killed node %d had sessions but no viewer failed over", kill2Victim)
				}
			}
		}
	}
}
