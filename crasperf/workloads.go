package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
)

// shape is a workload's traffic mix. Every viewer is an open-loop arrival
// in virtual time, placed relative to the moment the system reports ready.
type shape struct {
	viewers   int      // offered viewers
	span      sim.Time // arrivals spread over [0, span) after ready
	frames    int      // frames each viewer consumes
	titles    int      // catalog size
	titleDur  sim.Time // length of every title
	zipf      float64  // Zipf skew of the title choice; 0 picks uniformly
	ownTitle  bool     // arrivals take titles round-robin, so no two concurrent streams share one
	vcrShare  float64  // share of viewers that run a VCR script
	vcrOps    int      // operations in each VCR script
	recorders int      // constant-rate recording sessions opened at ready
	cats      int      // UFS readers at timesharing priority, on every machine
	hogs      int      // periodic real-time tasks (8 ms of every 10) at the request manager's priority, on every machine
}

// scaled shrinks the mix for the package's own test; the benchmark runs
// at f = 1. The arrival rate is kept, so the load relative to capacity
// stays the same.
func (sh shape) scaled(f float64) shape {
	if f >= 1 {
		return sh
	}
	sh.viewers = max(4, int(math.Round(float64(sh.viewers)*f)))
	sh.span = sim.Time(float64(sh.span) * f)
	sh.frames = max(60, int(math.Round(float64(sh.frames)*f)))
	return sh
}

// workload is one named, seeded traffic mix and the system it runs on.
type workload struct {
	name  string
	shape shape
	boot  func(seed int64, movies []lab.Movie, ready func(*system)) *system
}

var workloads = []*workload{
	// The paper's machine, with two cats and two recorders beside the
	// viewers: ufs, both disk queues and rtm IPC do the work.
	{
		name: "testbed",
		shape: shape{
			viewers: 400, span: 560 * time.Second, frames: 600,
			titles: 24, titleDur: 40 * time.Second,
			vcrShare: 0.25, vcrOps: 3, recorders: 2, cats: 2,
		},
		boot: bootTestbed,
	},
	// Hundreds of unshared streams on a 16-disk RAID-0 at T = 2 s:
	// per-stream core scheduling, disk service and the sim heap.
	{
		name: "fleet",
		shape: shape{
			viewers: 720, span: 60 * time.Second, frames: 600,
			titles: 512, titleDur: 30 * time.Second, ownTitle: true,
		},
		boot: bootFleet,
	},
	// Four nodes, Zipf 1.1 over 16 titles: the interval cache, multicast
	// fan-out and the placement ladder carry most viewers.
	{
		name: "cluster-zipf",
		shape: shape{
			viewers: 1100, span: 120 * time.Second, frames: 600,
			titles: 16, titleDur: 40 * time.Second, zipf: 1.1, hogs: 1,
		},
		boot: bootCluster,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// system is the machine under test as the benchmark sees it: the shared
// engine, the kernel its own threads run on, and the layers it reads
// counters from.
type system struct {
	eng      *sim.Engine
	k        *rtm.Kernel // set once the system is ready
	machines []*lab.Machine
	cl       *cluster.Cluster
	interval sim.Time
	titles   []*media.StreamInfo
	paths    []string
	err      func() error
}

// player is what a viewer needs from a session; *core.Handle and
// *cluster.Session both provide it.
type player interface {
	Start(th *rtm.Thread) error
	Close(th *rtm.Thread) error
	Get(logical sim.Time) (core.BufferedChunk, bool)
	ClockStartsAt(logical sim.Time) sim.Time
	LogicalNow() sim.Time
}

// open opens title for a viewer through the system's front door.
func (s *system) open(th *rtm.Thread, title int) (player, error) {
	if s.cl != nil {
		sess, err := s.cl.Open(th, s.paths[title], core.OpenOptions{})
		if err != nil {
			return nil, err
		}
		return sess, nil
	}
	h, err := s.machines[0].CRAS.Open(th, s.titles[title], s.paths[title], core.OpenOptions{})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// catalog generates the titles, plus one large file per cat to read.
func catalog(sh shape) (movies []lab.Movie, titles []*media.StreamInfo, paths []string) {
	for i := 0; i < sh.titles; i++ {
		p := fmt.Sprintf("/t%03d", i)
		info := media.MPEG1().Generate(p, sh.titleDur)
		movies = append(movies, lab.Movie{Path: p, Info: info})
		titles = append(titles, info)
		paths = append(paths, p)
	}
	for i := 0; i < sh.cats; i++ {
		p := fmt.Sprintf("/cat%d", i)
		movies = append(movies, lab.Movie{Path: p, Info: media.MPEG2().Generate(p, 60*time.Second)})
	}
	return movies, titles, paths
}

func bootTestbed(seed int64, movies []lab.Movie, ready func(*system)) *system {
	s := &system{interval: 500 * time.Millisecond}
	m := lab.Build(lab.Setup{
		Seed:   seed,
		Movies: movies,
		CRAS:   core.Config{Interval: s.interval, InitialDelay: time.Second},
	}, func(m *lab.Machine) {
		s.k = m.Kernel
		ready(s)
	})
	s.eng, s.machines, s.err = m.Eng, []*lab.Machine{m}, m.Err
	return s
}

func bootFleet(seed int64, movies []lab.Movie, ready func(*system)) *system {
	s := &system{interval: 2 * time.Second}
	m := lab.Build(lab.Setup{
		Seed:   seed,
		Disks:  16,
		Movies: movies,
		CRAS: core.Config{
			Interval:     s.interval,
			BufferBudget: 1 << 30,
			// Admission, not the control-plane gate, is what should bind:
			// with shedding on, the gate's spare-time budget turns most
			// opens away long before the disks fill.
			MaxRequestsPerCycle: -1,
			RequestQueueCap:     1024,
		},
	}, func(m *lab.Machine) {
		s.k = m.Kernel
		ready(s)
	})
	s.eng, s.machines, s.err = m.Eng, []*lab.Machine{m}, m.Err
	return s
}

func bootCluster(seed int64, movies []lab.Movie, ready func(*system)) *system {
	const ram = 64 << 20
	s := &system{interval: 500 * time.Millisecond}
	c := cluster.New(cluster.Config{
		Nodes: 4,
		Seed:  seed,
		// Each node spends its RAM half on stream buffers and a quarter each
		// on the interval cache and the fan-out/prefix pool.
		Node: lab.Setup{CRAS: core.Config{
			Interval:     s.interval,
			InitialDelay: 2 * time.Second,
			BufferBudget: ram / 2,
			CacheBudget:  ram / 4,
			BatchWindow:  time.Second,
			PrefixBudget: ram / 4,
		}},
		Movies: movies,
	}, func(c *cluster.Cluster) {
		s.k = c.Kernel()
		ready(s)
	})
	s.eng, s.cl, s.err = c.Engine(), c, c.Err
	for i := 0; i < c.Nodes(); i++ {
		s.machines = append(s.machines, c.Machine(i))
	}
	return s
}

// viewerPlan is one scripted viewer.
type viewerPlan struct {
	arrive sim.Time // offset from ready
	title  int
	frames int
	ops    []vcrOp
}

// vcrOp is one scripted VCR operation.
type vcrOp struct {
	after  int    // frames consumed before the operation runs
	kind   string // "seek", "pause" or "rate"
	target int    // seek: chunk index to jump to
	rate   float64
}

// rateFrames is how long a viewer plays at double speed before setting
// the rate back.
const rateFrames = 60

// script draws every viewer's arrival, title and VCR script up front, so
// the offered load is a fixed function of the seed.
func script(rng *sim.RNG, sh shape) []viewerPlan {
	// Every draw is stratified: one arrival at a uniform point of each of
	// V equal slots of the span, title choices that hit the popularity
	// distribution's quantiles exactly once each in random order, and an
	// exact share of interactive viewers. A seed then changes which viewer
	// does what, not how much of each there is, so the queueing, sharing
	// and refusals it produces stay alike across seeds.
	plans := make([]viewerPlan, sh.viewers)
	slot := sh.span / sim.Time(sh.viewers)
	cdf := zipfCDF(sh.titles, sh.zipf)
	quantile := rng.Perm(sh.viewers)
	interactive := rng.Perm(sh.viewers)
	titleChunks := int(sh.titleDur / (time.Second / 30))
	for i := range plans {
		p := &plans[i]
		p.arrive = sim.Time(i)*slot + rng.DurationRange(0, slot)
		p.frames = sh.frames
		if sh.ownTitle {
			p.title = i % sh.titles
		} else {
			u := (float64(quantile[i]) + rng.Float64()) / float64(sh.viewers)
			p.title = min(sort.SearchFloat64s(cdf, u), sh.titles-1)
		}
		if float64(interactive[i]) >= sh.vcrShare*float64(sh.viewers) {
			continue
		}
		for j := 0; j < sh.vcrOps; j++ {
			at := (j + 1) * sh.frames / (sh.vcrOps + 1)
			switch rng.Intn(3) {
			case 0:
				p.ops = append(p.ops, vcrOp{after: at, kind: "seek", target: rng.Intn(titleChunks - sh.frames)})
			case 1:
				p.ops = append(p.ops, vcrOp{after: at, kind: "pause"})
			default:
				p.ops = append(p.ops,
					vcrOp{after: at, kind: "rate", rate: 2},
					vcrOp{after: at + rateFrames, kind: "rate", rate: 1})
			}
		}
	}
	return plans
}

// zipfCDF returns the cumulative title-choice distribution: Zipf(alpha)
// over n titles, or uniform when alpha is 0.
func zipfCDF(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}
