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

// checkLostAt requires losses (so the check is not vacuous) and one LostAt
// entry per lost frame from every player of a launcher.
func checkLostAt(t *testing.T, launcher string, lost []int, lostAt [][]int) {
	t.Helper()
	total := 0
	for i := range lost {
		total += lost[i]
		if len(lostAt[i]) != lost[i] {
			t.Errorf("%s player %d: Lost %d, %d LostAt entries", launcher, i, lost[i], len(lostAt[i]))
		}
	}
	t.Logf("%s: %d lost over %d players", launcher, total, len(lost))
	if total == 0 {
		t.Errorf("%s: no frame lost under failing reads; the check is vacuous", launcher)
	}
}

// TestLostAtMatchesLost: every launcher records one LostAt frame index per
// frame it counts in Lost.
func TestLostAtMatchesLost(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 6*time.Second)
	infos, paths := []*media.StreamInfo{movie}, []string{"/m"}
	// The Unix player reads through the file system, past the real-time
	// queue: it loses the frames its chunk table places beyond the end of
	// the stored file.
	longer := media.MPEG1().Generate("/m", 8*time.Second)
	const failAt = 2 * time.Second
	player := PlayerConfig{MaxFrames: 150}

	machine := func(noCRAS bool, launch func(m *lab.Machine) []*PlayerStats) []*PlayerStats {
		var stats []*PlayerStats
		m := lab.Build(lab.Setup{
			Seed: 1, DiskCylinders: 600, NoCRAS: noCRAS,
			Movies: []lab.Movie{{Path: "/m", Info: movie}},
		}, func(m *lab.Machine) {
			failReadsAfter(m, failAt)
			stats = launch(m)
		})
		m.Run(30 * time.Second)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return stats
	}
	viewers := func(outs []*ViewerOutcome) []*PlayerStats {
		var stats []*PlayerStats
		for _, o := range outs {
			stats = append(stats, &o.Stats)
		}
		return stats
	}
	for _, tc := range []struct {
		name   string
		noCRAS bool
		launch func(m *lab.Machine) []*PlayerStats
	}{
		{"CRASPlayer", false, func(m *lab.Machine) []*PlayerStats {
			var ps PlayerStats
			CRASPlayer(m.Kernel, m.CRAS, movie, "/m", core.OpenOptions{}, player, &ps)
			return []*PlayerStats{&ps}
		}},
		{"UFSPlayer", true, func(m *lab.Machine) []*PlayerStats {
			var ps PlayerStats
			UFSPlayer(m.Kernel, m.Unix, longer, "/m", time.Second, PlayerConfig{}, &ps)
			return []*PlayerStats{&ps}
		}},
		{"CrashingViewer", false, func(m *lab.Machine) []*PlayerStats {
			var ps PlayerStats
			CrashingViewer(m.Kernel, m.CRAS, movie, "/m", 4*time.Second, player, &ps)
			return []*PlayerStats{&ps}
		}},
		{"LaunchZipfViewers", false, func(m *lab.Machine) []*PlayerStats {
			return viewers(LaunchZipfViewers(m.Kernel, m.CRAS, infos, paths, m.Eng.RNG("zipf"),
				ZipfViewerConfig{Clients: 3, Alpha: 1, ArrivalSpread: time.Second, Player: player}))
		}},
		{"LaunchBatchedViewers", false, func(m *lab.Machine) []*PlayerStats {
			return viewers(LaunchBatchedViewers(m.Kernel, m.CRAS, infos, paths, m.Eng.RNG("batch"),
				BatchedViewerConfig{Clients: 3, Alpha: 1, WaveSpread: time.Second, Player: player}))
		}},
		{"LaunchVCRViewers", false, func(m *lab.Machine) []*PlayerStats {
			var stats []*PlayerStats
			for _, o := range LaunchVCRViewers(m.Kernel, m.CRAS, infos, paths, m.Eng.RNG("vcr"),
				VCRViewerConfig{Clients: 3, Alpha: 1, ArrivalSpread: time.Second, Player: player}) {
				stats = append(stats, &o.Stats)
			}
			return stats
		}},
	} {
		stats := machine(tc.noCRAS, tc.launch)
		lost, lostAt := make([]int, len(stats)), make([][]int, len(stats))
		for i, ps := range stats {
			lost[i], lostAt[i] = ps.Lost, ps.LostAt
		}
		checkLostAt(t, tc.name, lost, lostAt)
	}

	var outs []*ClusterViewerOutcome
	c := cluster.New(cluster.Config{
		Nodes: 2, Seed: 1,
		Node:   lab.Setup{DiskCylinders: 600},
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
	}, func(c *cluster.Cluster) {
		for id := 0; id < c.Nodes(); id++ {
			failReadsAfter(c.Machine(id), failAt)
		}
		outs = LaunchClusterViewers(c, paths, c.Engine().RNG("cluster"),
			ClusterViewerConfig{Clients: 3, Alpha: 1, ArrivalSpread: time.Second, MaxFrames: 150})
	})
	c.Run(30 * time.Second)
	lost, lostAt := make([]int, len(outs)), make([][]int, len(outs))
	for i, o := range outs {
		lost[i], lostAt[i] = o.Lost, o.LostAt
	}
	checkLostAt(t, "LaunchClusterViewers", lost, lostAt)
}
