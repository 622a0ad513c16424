package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rtm"
)

// TestNodeLadderSequences pins the node ladder's exact transitions, the
// heartbeat that fired each one and its cause. Heartbeats are driven by
// hand (the monitor's own period is pushed out of the run), after one
// untracked clean heartbeat: a 'm' heartbeat follows two intervals with node
// 0 wedged, a 'c' one two intervals with it running. Two consecutive misses
// make a node Suspect, one clean heartbeat brings it back, and DeadAfter consecutive misses pronounce it Dead; a
// clean heartbeat between misses starts the count afresh.
func TestNodeLadderSequences(t *testing.T) {
	for _, tc := range []struct {
		name      string
		deadAfter int
		script    string
		want      []string
	}{{
		name:   "alternating miss and clean",
		script: "mcmcmcmc",
	}, {
		name:   "suspect then healthy",
		script: "cmmmcm",
		want: []string{
			"hb2 {n0 0 healthy suspect 4.073555471s missed cycle heartbeats}",
			"hb4 {n0 0 suspect healthy 6.073555471s cycles resumed}",
		},
	}, {
		name:   "wedged to dead at the default DeadAfter",
		script: "mmmmmm",
		want: []string{
			"hb1 {n0 0 healthy suspect 3.073555471s missed cycle heartbeats}",
			"hb3 {n0 0 suspect dead 5.073555471s missed cycle heartbeats}",
		},
	}, {
		name:      "wedged to dead at DeadAfter 3",
		deadAfter: 3,
		script:    "mmmm",
		want: []string{
			"hb1 {n0 0 healthy suspect 3.073555471s missed cycle heartbeats}",
			"hb2 {n0 0 suspect dead 4.073555471s missed cycle heartbeats}",
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2, 140, testMovies(1, time.Second))
			cfg.HeartbeatEvery = time.Hour
			cfg.DeadAfter = tc.deadAfter
			var got []string
			hb := 0
			c := New(cfg, func(c *Cluster) {
				c.OnNodeHealth = func(ev NodeHealthEvent) {
					got = append(got, fmt.Sprintf("hb%d %v", hb, ev))
				}
				c.k.NewThread("ctl", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
					srv := c.NodeCRAS(0)
					beat := func() {
						th.Sleep(2 * tInterval)
						c.heartbeatStep()
						c.applyTransitions()
					}
					beat() // sync: boot may leave a cycle unobserved
					for i, b := range tc.script {
						if b == 'm' {
							srv.Wedge()
						} else {
							srv.Unwedge()
						}
						hb = i
						beat()
					}
					srv.Unwedge()
				})
			})
			c.Run(time.Duration(2*len(tc.script)+4) * tInterval)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("node ladder:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
			}
		})
	}
}
