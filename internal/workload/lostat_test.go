package workload

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/sim"
)

var errInjected = errors.New("injected read failure")

// failReadsAfter makes every real-time read on the machine's disks fail
// from the given virtual time on, so every CRAS player loses frames.
func failReadsAfter(m *lab.Machine, at sim.Time) {
	for _, d := range m.Vol.Disks() {
		d.SetFaultInjector(func(r *disk.Request) error {
			if r.RealTime && !r.Write && m.Eng.Now() >= at {
				return errInjected
			}
			return nil
		})
	}
}

// played is one viewer's record as the accounting checks see it.
type played struct {
	stats  *PlayerStats
	window int  // frames the viewer was due: the title or MaxFrames
	seeks  bool // scripted to reposition or quit, so Frames need not match window
	paced  bool // the span covers lost frames too, so pacing can be checked
}

// checkAccounting requires losses (so the check is not vacuous) and, for
// every viewer of a launch: one LostAt entry per lost frame, every frame it
// played through either obtained or lost, the whole window accounted for
// by a viewer that neither repositions nor quits, and losses after a
// stopped clock paced at the frame cadence rather than counted off in zero
// time.
func checkAccounting(t *testing.T, launch string, frameDur sim.Time, viewers []played) {
	t.Helper()
	total := 0
	for i, v := range viewers {
		ps := v.stats
		total += ps.Lost
		if len(ps.LostAt) != ps.Lost {
			t.Errorf("%s viewer %d: Lost %d, %d LostAt entries", launch, i, ps.Lost, len(ps.LostAt))
		}
		if ps.Obtained+ps.Lost != ps.Frames {
			t.Errorf("%s viewer %d: obtained %d + lost %d != %d frames", launch, i, ps.Obtained, ps.Lost, ps.Frames)
		}
		if v.seeks {
			continue
		}
		if ps.Frames != v.window {
			t.Errorf("%s viewer %d: accounted for %d of its %d frames", launch, i, ps.Frames, v.window)
		}
		if v.paced && ps.Obtained > 0 && ps.Span < sim.Time(ps.Frames-1)*frameDur {
			t.Errorf("%s viewer %d: %d frames took %v, less than their %v of play time",
				launch, i, ps.Frames, ps.Span, sim.Time(ps.Frames-1)*frameDur)
		}
	}
	t.Logf("%s: %d lost over %d viewers", launch, total, len(viewers))
	if total == 0 {
		t.Errorf("%s: no frame lost under failing reads; the check is vacuous", launch)
	}
}

// TestLostAtMatchesLost: under failing reads, every viewer accounts for
// every frame it was due, records one LostAt frame index per lost frame,
// and keeps losing at the frame cadence once the clock stops.
func TestLostAtMatchesLost(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 6*time.Second)
	frameDur := movie.Chunks[0].Duration
	infos, paths := []*media.StreamInfo{movie}, []string{"/m"}
	// The Unix player reads through the file system, past the real-time
	// queue: it loses the frames its chunk table places beyond the end of
	// the stored file.
	longer := media.MPEG1().Generate("/m", 8*time.Second)
	const failAt = 2 * time.Second
	const window = 150
	player := PlayerConfig{MaxFrames: window}

	machine := func(noCRAS bool, launch func(m *lab.Machine) []played) []played {
		var viewers []played
		m := lab.Build(lab.Setup{
			Seed: 1, DiskCylinders: 600, NoCRAS: noCRAS,
			Movies: []lab.Movie{{Path: "/m", Info: movie}},
		}, func(m *lab.Machine) {
			failReadsAfter(m, failAt)
			viewers = launch(m)
		})
		m.Run(30 * time.Second)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return viewers
	}
	viewers := func(outs []*Outcome) []played {
		var vs []played
		for _, o := range outs {
			vs = append(vs, played{stats: &o.Stats, window: window, paced: true, seeks: len(o.Ops) > 0})
		}
		return vs
	}
	scripted := func(m *lab.Machine, sc Script) []played {
		return viewers(Launch(m.Kernel, ServerOpener(m.CRAS, infos, paths), sc, player))
	}
	for _, tc := range []struct {
		name   string
		noCRAS bool
		launch func(m *lab.Machine) []played
	}{
		{"CRASPlayer", false, func(m *lab.Machine) []played {
			var ps PlayerStats
			CRASPlayer(m.Kernel, m.CRAS, movie, "/m", core.OpenOptions{}, player, &ps)
			return []played{{stats: &ps, window: window, paced: true}}
		}},
		{"UFSPlayer", true, func(m *lab.Machine) []played {
			var ps PlayerStats
			UFSPlayer(m.Kernel, m.Unix, longer, "/m", time.Second, PlayerConfig{}, &ps)
			// Its span covers obtained frames only, so pacing goes unchecked.
			return []played{{stats: &ps, window: len(longer.Chunks)}}
		}},
		{"crash", false, func(m *lab.Machine) []played {
			return scripted(m, Script{{Ops: []Op{{Kind: OpCrash, At: 4 * time.Second}}}})
		}},
		{"uniform", false, func(m *lab.Machine) []played {
			return scripted(m, NewScript(m.Eng.RNG("zipf"), 1,
				ScriptConfig{Clients: 3, Alpha: 1, WaveSpread: time.Second}))
		}},
		{"waves", false, func(m *lab.Machine) []played {
			return scripted(m, NewScript(m.Eng.RNG("batch"), 1,
				ScriptConfig{Clients: 3, Alpha: 1, Waves: 2, WaveGap: time.Second, WaveSpread: time.Second}))
		}},
		{"interactive", false, func(m *lab.Machine) []played {
			return scripted(m, NewScript(m.Eng.RNG("vcr"), 1,
				ScriptConfig{Clients: 3, Alpha: 1, WaveSpread: time.Second, Interactive: true}))
		}},
	} {
		checkAccounting(t, tc.name, frameDur, machine(tc.noCRAS, tc.launch))
	}

	var outs []*Outcome
	c := cluster.New(cluster.Config{
		Nodes: 2, Seed: 1,
		Node:   lab.Setup{DiskCylinders: 600},
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
	}, func(c *cluster.Cluster) {
		for id := 0; id < c.Nodes(); id++ {
			failReadsAfter(c.Machine(id), failAt)
		}
		outs = Launch(c.Kernel(), ClusterOpener(c, paths), NewScript(c.Engine().RNG("cluster"), 1,
			ScriptConfig{Clients: 3, Alpha: 1, WaveSpread: time.Second}), player)
	})
	c.Run(30 * time.Second)
	checkAccounting(t, "cluster", frameDur, viewers(outs))
}
