package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/sim"
)

// repConfig selects one repetition: a workload at a seed, traced or not.
type repConfig struct {
	w      *workload
	seed   int64
	scale  float64
	trace  bool
	outDir string // where a traced repetition writes its spans and profile
	tag    string // distinguishes this repetition's files
}

// repResult is everything one repetition measured. Service and Layer
// are pure functions of the seed; the rest is wall time and Go runtime
// cost.
type repResult struct {
	Seed    int64              `json:"seed"`
	Service service            `json:"service"`
	Layer   map[string]float64 `json:"layer"`

	SetupS     float64   `json:"setup_s"`     // CPU seconds from start to ready
	MeasureS   float64   `json:"measure_s"`   // wall seconds of the measured phase
	MeasureCPU float64   `json:"measure_cpu"` // CPU seconds of the measured phase
	Events     int64     `json:"events"`
	Allocs     uint64    `json:"allocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	PeakHeapMB float64   `json:"peak_heap_mb"`
	GCs        uint32    `json:"gcs"`
	SliceMs    []float64 `json:"slice_ms"`

	// Traced repetitions only.
	CPU      map[string]int64 `json:"cpu,omitempty"`
	WriteOps int64            `json:"write_ops"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems"`
}

// service is what the viewers got, in virtual time: latency samples in
// milliseconds and frame counts over admitted viewers. A run pools it over
// its seeds.
type service struct {
	Offered      int       `json:"offered"`
	Refused      int       `json:"refused"`
	Due          int       `json:"due"`
	OnTime       int       `json:"on_time"`
	Late         int       `json:"late"`
	Lost         int       `json:"lost"`
	StreamCycles float64   `json:"stream_cycles"`
	OpenMs       []float64 `json:"open_ms"`
	StartupMs    []float64 `json:"startup_ms"`
	CtlMs        []float64 `json:"ctl_ms"`
}

// cpuTime returns the CPU seconds this process has used, in user and
// system mode, on all its threads. Unlike wall time it does not count the
// time the machine gave to other work, which on a shared virtual machine
// swings by a third within minutes.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// horizon bounds the measured phase in virtual time: a run that has not
// finished by then is stuck.
const horizon = 30 * time.Minute

// runRep boots the workload's system, runs its script to the end and
// measures it.
func runRep(cfg repConfig) (*repResult, error) {
	cpu0 := cpuTime()
	sh := cfg.w.shape.scaled(cfg.scale)
	movies, titles, paths := catalog(sh)
	a := &actors{}
	if cfg.trace {
		a.tr = &tracer{}
	}
	var before counters
	ready := false
	sys := cfg.w.boot(cfg.seed, movies, func(s *system) {
		before = read(s)
		a.start(sh)
		ready = true
	})
	sys.titles, sys.paths = titles, paths
	a.sys = sys
	// Every random draw happens here, before the simulation runs.
	a.plans = script(sys.eng.RNG("crasperf.script"), sh)
	a.viewers = make([]viewerRec, len(a.plans))
	recordFor := sh.span + sim.Time(sh.frames)*titles[0].Chunks[0].Duration
	for i := 0; i < sh.recorders; i++ {
		info := media.MPEG1().Generate(fmt.Sprintf("/rec%d", i), recordFor)
		a.recInfo = append(a.recInfo, info)
		a.recs = append(a.recs, recorderRec{planned: info.TotalSize()})
	}
	for !ready {
		if !sys.eng.Step() {
			return nil, errors.New("set-up stalled before the system was ready")
		}
		if err := sys.err(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	res := &repResult{Seed: cfg.seed, SetupS: cpuTime() - cpu0}

	var writes int64
	var prof *os.File
	if cfg.trace {
		// The fault-injector hook sees every completed request; as a
		// pass-through it counts writes and never fails one.
		for _, m := range sys.machines {
			for _, d := range m.Vol.Disks() {
				d.SetFaultInjector(func(r *disk.Request) error {
					if r.Write {
						writes++
					}
					return nil
				})
			}
		}
		f, err := os.Create(filepath.Join(cfg.outDir, "cpu-"+cfg.tag+".pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		prof = f
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The peak heap is the largest live heap a garbage collection found:
	// unlike the allocated heap, it does not depend on where in the
	// collection cycle the sample falls.
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	peak := live[0].Value.Uint64()
	cpu1 := cpuTime()
	w0 := time.Now()
	if a.tr != nil {
		a.tr.t0 = w0
	}
	var events int64
	for !a.finished() {
		if sys.eng.Now()-a.readyAt > horizon {
			return nil, fmt.Errorf("clients still running after %v of virtual time", horizon)
		}
		// Drive the engine one virtual second at a time through Step, so
		// every event is counted; the sentinel event marks the slice end.
		sliceEnd := false
		sys.eng.At(sys.eng.Now()+time.Second, func() { sliceEnd = true })
		s0 := time.Now()
		for !sliceEnd {
			if !sys.eng.Step() {
				return nil, errors.New("event calendar ran dry")
			}
			events++
		}
		events-- // the sentinel
		s1 := time.Now()
		res.SliceMs = append(res.SliceMs, float64(s1.Sub(s0))/1e6)
		a.tr.slice(s0, s1)
		if err := sys.err(); err != nil {
			return nil, err
		}
		metrics.Read(live)
		peak = max(peak, live[0].Value.Uint64())
	}
	res.MeasureS = time.Since(w0).Seconds()
	res.MeasureCPU = cpuTime() - cpu1
	runtime.ReadMemStats(&m1)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		cpu, err := cpuByLayer(prof.Name())
		if err != nil {
			return nil, err
		}
		res.CPU = cpu
		if err := a.tr.write(filepath.Join(cfg.outDir, "spans-"+cfg.tag+".jsonl")); err != nil {
			return nil, err
		}
	}
	res.Events = events
	res.Allocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.PeakHeapMB = float64(peak) / (1 << 20)
	res.GCs = m1.NumGC - m0.NumGC
	res.WriteOps = writes
	a.summarize(res, read(sys).sub(before), sys.eng.Now()-a.readyAt)
	return res, nil
}

// summarize turns the clients' records and the layer counters into the
// repetition's virtual-time results, and checks the accounting.
func (a *actors) summarize(res *repResult, d counters, span sim.Time) {
	sv := &res.Service
	var (
		lag, wait          []float64
		vcrOps, vcrRefused int
		shared, stamped    int64
		sessionTime        sim.Time
	)
	for i := range a.viewers {
		r := &a.viewers[i]
		sv.Offered++
		lag = append(lag, ms(r.lag))
		if r.thread != nil {
			wait = append(wait, float64(r.thread.MaxDispatchWait())/1e3)
		}
		if r.refused {
			sv.Refused++
		}
		if !r.admitted {
			continue
		}
		sv.OpenMs = append(sv.OpenMs, ms(r.openLat))
		if r.startup >= 0 {
			sv.StartupMs = append(sv.StartupMs, ms(r.startup))
		}
		for _, c := range r.ctl {
			sv.CtlMs = append(sv.CtlMs, ms(c))
		}
		if r.onTime+r.late+r.lost != r.due {
			a.problem("viewer %d: %d on time + %d late + %d lost != %d due", i, r.onTime, r.late, r.lost, r.due)
		}
		sv.Due += r.due
		sv.OnTime += r.onTime
		sv.Late += r.late
		sv.Lost += r.lost
		vcrOps += r.vcrOps
		vcrRefused += r.vcrRefused
		shared += r.shared
		stamped += r.stamped
		sessionTime += r.closed - r.opened
	}
	for i := range a.recs {
		r := &a.recs[i]
		for _, c := range r.ctl {
			sv.CtlMs = append(sv.CtlMs, ms(c))
		}
		sessionTime += r.closed - r.opened
	}
	cycles := float64(sessionTime) / float64(a.sys.interval)
	sv.StreamCycles = cycles
	slack := make([]float64, len(a.slack))
	for i, s := range a.slack {
		slack[i] = ms(s)
	}
	secs := span.Seconds()
	ops := float64(d.diskOps[0] + d.diskOps[1])
	var utilSum, utilMax float64
	for _, b := range d.busy {
		u := float64(b) / float64(span)
		utilSum += u
		utilMax = max(utilMax, u)
	}
	res.Layer = map[string]float64{
		"sim.events_per_stream_cycle":      ratio(float64(res.Events), cycles),
		"rtm.preemptions_per_stream_cycle": ratio(float64(d.preemptions), cycles),
		"rtm.viewer_wait_p90_us":           percentile(wait, 0.9),
		"rtm.arrival_lag_p90_ms":           percentile(lag, 0.9),
		"disk.rt_ops_per_stream_cycle":     ratio(float64(d.diskOps[1]), cycles),
		"disk.normal_ops_per_s":            ratio(float64(d.diskOps[0]), secs),
		"disk.bytes_per_op":                ratio(float64(d.diskBytes), ops),
		"disk.util_mean":                   ratio(utilSum, float64(len(d.busy))),
		"disk.util_max":                    utilMax,
		"disk.queue_wait_ms_per_op":        ratio(ms(d.queueWait), ops),
		"disk.seek_ms_per_op":              ratio(ms(d.seek), ops),
		"ufs.calls_per_s":                  ratio(float64(d.ufsCalls), secs),
		"ufs.cache_hit_ratio":              ratio(float64(d.ufsHits), float64(d.ufsHits+d.ufsMisses)),
		"ufs.cache_misses_per_s":           ratio(float64(d.ufsMisses), secs),
		"core.reads_per_stream_cycle":      ratio(float64(d.coreReads), cycles),
		"core.bytes_read_per_stream_cycle": ratio(float64(d.coreBytes), cycles),
		"core.deadline_misses":             float64(d.deadlineMisses),
		"core.stamp_slack_p10_ms":          percentile(slack, 0.1),
		"core.shared_chunk_share":          ratio(float64(shared), float64(stamped)),
		"core.fallback_share":              ratio(float64(d.fallbacks), float64(d.attached)),
		"core.vcr_refused_share":           ratio(float64(vcrRefused), float64(vcrOps)),
		"core.requests_shed":               float64(d.shed),
		"cluster.placement_share":          ratio(float64(d.cl.PlacementOpens), float64(d.cl.Opens)),
		"cluster.ring_share":               ratio(float64(d.cl.RingOpens), float64(d.cl.Opens)),
		"cluster.spill_share":              ratio(float64(d.cl.SpillOpens), float64(d.cl.Opens)),
		"cluster.open_rejects":             float64(d.cl.OpenRejects),
		"cluster.heartbeats_per_s":         ratio(float64(d.cl.HeartbeatsObserved), secs),
	}
	res.Attempted = a.attempted
	res.Failed = a.failed
	res.Problems = a.problems
}
