package workload

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/sim"
)

var updateOutcomes = flag.Bool("update", false, "rewrite testdata/outcomes.golden from this run")

// catalogue generates n titles of the profile, long enough for frames of
// playback after the latest arrival.
func catalogue(prof media.CBRProfile, n int, dur sim.Time) ([]*media.StreamInfo, []string, []lab.Movie) {
	var infos []*media.StreamInfo
	var paths []string
	var movies []lab.Movie
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/g%02d", i)
		info := prof.Generate(path, dur)
		infos = append(infos, info)
		paths = append(paths, path)
		movies = append(movies, lab.Movie{Path: path, Info: info})
	}
	return infos, paths, movies
}

// runMachine drives a single-node machine until done reports true.
func runMachine(t *testing.T, m *lab.Machine, done func() bool) {
	t.Helper()
	for ran := sim.Time(0); ran < 120*time.Second; ran += time.Second {
		m.Run(time.Second)
		if done() {
			break
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOutcomesGolden pins every launcher's per-viewer outcome at seed 1
// with no faults injected: title, arrival, admission, sharing flags, the
// frame accounting and (for interactive viewers) the VCR record. Rewrite
// with go test ./internal/workload -run TestOutcomesGolden -update.
func TestOutcomesGolden(t *testing.T) {
	var b strings.Builder
	line := func(launcher string, i, title int, at sim.Time, admitted bool, format string, args ...any) {
		fmt.Fprintf(&b, "%s %02d title=%d at=%v admitted=%v "+format+"\n",
			append([]any{launcher, i, title, at, admitted}, args...)...)
	}
	viewer := func(launcher string, i int, o *Outcome) {
		line(launcher, i, o.Title, o.At, o.Admitted,
			"cache=%v mcast=%v prefix=%v frames=%d obtained=%d lost=%d done=%v",
			o.CacheBacked, o.Multicast, o.PrefixStart,
			o.Stats.Frames, o.Stats.Obtained, o.Stats.Lost, o.Stats.Done)
	}

	// Zipf viewers over the interval cache.
	infos, paths, movies := catalogue(media.MPEG1(), 3, 12*time.Second)
	var zipf []*Outcome
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600,
		CRAS:   core.Config{BufferBudget: 24 << 20, CacheBudget: 8 << 20},
		Movies: movies,
	}, func(m *lab.Machine) {
		zipf = Launch(m.Kernel, ServerOpener(m.CRAS, infos, paths),
			NewScript(m.Eng.RNG("zipf"), len(paths), ScriptConfig{Clients: 10, Alpha: 1.1, WaveSpread: 3 * time.Second}),
			PlayerConfig{MaxFrames: 120})
	})
	runMachine(t, m, func() bool {
		for _, o := range zipf {
			if !o.Stats.Done {
				return false
			}
		}
		return true
	})
	for i, o := range zipf {
		viewer("zipf", i, o)
	}

	// A two-wave premiere over multicast batching and pinned prefixes.
	var batch []*Outcome
	m = lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600,
		CRAS: core.Config{BufferBudget: 16 << 20, CacheBudget: 8 << 20,
			PrefixBudget: 16 << 20, BatchWindow: 2 * time.Second},
		Movies: movies,
	}, func(m *lab.Machine) {
		batch = Launch(m.Kernel, ServerOpener(m.CRAS, infos, paths),
			NewScript(m.Eng.RNG("batch"), len(paths), ScriptConfig{Clients: 10, Alpha: 1.1,
				Waves: 2, WaveGap: 4 * time.Second, WaveSpread: time.Second}),
			PlayerConfig{MaxFrames: 120})
	})
	runMachine(t, m, func() bool {
		for _, o := range batch {
			if !o.Stats.Done {
				return false
			}
		}
		return true
	})
	for i, o := range batch {
		viewer("batch", i, o)
	}

	// An interactive MPEG-2 population under the delivered-rate ladder.
	vinfos, vpaths, vmovies := catalogue(media.MPEG1(), 4, 12*time.Second)
	var vcr []*Outcome
	m = lab.Build(lab.Setup{
		Seed:   1,
		CRAS:   core.Config{BufferBudget: 24 << 20, RateLadder: []float64{1, 0.75, 0.5}},
		Movies: vmovies,
	}, func(m *lab.Machine) {
		vcr = Launch(m.Kernel, ServerOpener(m.CRAS, vinfos, vpaths),
			NewScript(m.Eng.RNG("vcr"), len(vpaths), ScriptConfig{Clients: 14, Alpha: 0.7,
				WaveSpread: 2 * time.Second, Interactive: true}),
			PlayerConfig{MaxFrames: 150})
	})
	runMachine(t, m, func() bool {
		for _, o := range vcr {
			if !o.Stats.Done {
				return false
			}
		}
		return true
	})
	for i, o := range vcr {
		line("vcr", i, o.Title, o.At, o.Admitted,
			"cache=%v mcast=%v prefix=%v frames=%d obtained=%d lost=%d done=%v kind=%s ops=%d refusals=%d reduced=%v rate=%v",
			o.CacheBacked, o.Multicast, o.PrefixStart,
			o.Stats.Frames, o.Stats.Obtained, o.Stats.Lost, o.Stats.Done,
			o.Kind, o.Stats.Fired, o.Stats.Refusals, o.ReducedOpen, o.Stats.FinalRate)
	}

	// Zipf viewers against a two-node cluster front door.
	var cv []*Outcome
	c := cluster.New(cluster.Config{
		Nodes: 2, Seed: 1,
		Node: lab.Setup{DiskCylinders: 600, CRAS: core.Config{
			BufferBudget: 12 << 20, CacheBudget: 4 << 20,
			PrefixBudget: 4 << 20, BatchWindow: time.Second,
		}},
		Movies: movies,
	}, func(c *cluster.Cluster) {
		cv = Launch(c.Kernel(), ClusterOpener(c, paths),
			NewScript(c.Engine().RNG("cluster"), len(paths), ScriptConfig{Clients: 10, Alpha: 1.1, WaveSpread: 3 * time.Second}),
			PlayerConfig{MaxFrames: 120})
	})
	for ran := sim.Time(0); ran < 120*time.Second; ran += time.Second {
		c.Run(time.Second)
		done := true
		for _, o := range cv {
			done = done && o.Stats.Done
		}
		if done {
			break
		}
	}
	for i, o := range cv {
		line("cluster", i, o.Title, o.At, o.Admitted,
			"node=%d shared=%v moved=%v frames=%d obtained=%d lost=%d done=%v",
			o.Node, o.CacheBacked || o.Multicast, o.Moved, o.Stats.Frames, o.Stats.Obtained, o.Stats.Lost, o.Stats.Done)
	}

	const path = "testdata/outcomes.golden"
	if *updateOutcomes {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("outcomes differ from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
