// Package workload provides the application-side actors of the evaluation:
// movie players that consume streams through CRAS or through the Unix file
// system, the background "cat" readers that generate competing disk
// traffic, and the CPU-bound competitors of Figure 10.
package workload

import (
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// PlayerStats is what a player measured: per-frame delay samples (obtained
// time minus due time), counts, delivered bytes, and the record of its
// scripted ops.
type PlayerStats struct {
	Delays      metrics.Series // one sample per obtained frame, seconds
	DelaySeries metrics.Series // (real time, delay seconds) for Figure 7/10 traces
	Frames      int            // frames played through, obtained or lost
	Obtained    int
	Lost        int
	LostAt      []int // frame indices of lost frames (diagnostics)
	Expired     int   // obtained chunks that did not cover the time asked for
	Bytes       int64 // bytes of all obtained frames
	OnTimeBytes int64 // bytes of frames obtained within one frame duration
	Span        sim.Time
	Fired       int     // scripted ops run
	Refusals    int     // ops answered with a typed ErrVCRRefused
	FinalRate   float64 // delivered rate when playback ended
	Err         error   // what ended the session early, if anything did
	Done        bool
}

// Throughput returns delivered bytes per second over the measured span.
func (ps *PlayerStats) Throughput() float64 {
	if ps.Span <= 0 {
		return 0
	}
	return float64(ps.Bytes) / ps.Span.Seconds()
}

// OnTimeThroughput returns on-time bytes per second over the measured span.
func (ps *PlayerStats) OnTimeThroughput() float64 {
	if ps.Span <= 0 {
		return 0
	}
	return float64(ps.OnTimeBytes) / ps.Span.Seconds()
}

// PlayerConfig tunes a player. Priority and Quantum set the thread of a
// CRASPlayer or UFSPlayer; Launch runs its viewers at rtm.PrioRTLow.
type PlayerConfig struct {
	Priority  int      // thread priority; UFSPlayer defaults 0 to rtm.PrioRTLow
	Quantum   sim.Time // 0 = fixed priority
	MaxFrames int      // 0 = whole movie
	FrameCPU  sim.Time // decode cost charged per obtained frame
}

// CRASPlayer opens a stream on the CRAS server and consumes it frame by
// frame at its natural rate, producing delay measurements. It runs as its
// own thread and fills stats as it goes; Done is set when playback ends.
func CRASPlayer(k *rtm.Kernel, srv *core.Server, info *media.StreamInfo, path string,
	opts core.OpenOptions, cfg PlayerConfig, stats *PlayerStats) *rtm.Thread {
	return k.NewThread("crasplay:"+path, cfg.Priority, cfg.Quantum, func(th *rtm.Thread) {
		defer func() { stats.Done = true }()
		h, err := srv.Open(th, info, path, opts)
		if err != nil {
			return
		}
		Play(k, th, h, nil, cfg, stats)
	})
}

// UFSPlayer consumes a movie through the Unix file system: at each frame's
// due time it issues a read for the frame's bytes through the server. This
// is the baseline of Figures 6 and 7 — no admission, no real-time queue,
// priority inversion through the shared server thread.
func UFSPlayer(k *rtm.Kernel, srv *ufs.Server, info *media.StreamInfo, path string,
	initialDelay sim.Time, cfg PlayerConfig, stats *PlayerStats) *rtm.Thread {
	frameDur := sim.Time(time.Second)
	if len(info.Chunks) > 0 {
		frameDur = info.Chunks[0].Duration
	}
	if cfg.Priority == 0 {
		cfg.Priority = rtm.PrioRTLow
	}
	return k.NewThread("ufsplay:"+path, cfg.Priority, cfg.Quantum, func(th *rtm.Thread) {
		defer func() { stats.Done = true }()
		c := ufs.NewClient(srv, th)
		fd, err := c.Open(path)
		if err != nil {
			return
		}
		defer c.Close(fd) //crasvet:allow ioerrcheck -- read-only fd; close cannot lose data
		frames := len(info.Chunks)
		if cfg.MaxFrames > 0 && cfg.MaxFrames < frames {
			frames = cfg.MaxFrames
		}
		stats.Frames = frames
		start := k.Now() + initialDelay
		begin := start
		for i := 0; i < frames; i++ {
			ch := info.Chunks[i]
			due := start + ch.Timestamp
			if k.Now() < due {
				th.SleepUntil(due)
			}
			data, err := c.Read(fd, ch.Offset, int(ch.Size))
			if err != nil || int64(len(data)) != ch.Size {
				stats.lose(i)
				continue
			}
			stats.record(k.Now(), k.Now()-due, ch.Size, frameDur)
			th.Compute(cfg.FrameCPU)
			stats.Span = k.Now() - begin
		}
	})
}

// lose counts frame i as lost.
func (ps *PlayerStats) lose(i int) {
	ps.Lost++
	ps.LostAt = append(ps.LostAt, i)
}

func (ps *PlayerStats) record(now, delay sim.Time, size int64, tolerance sim.Time) {
	if delay < 0 {
		delay = 0
	}
	ps.Obtained++
	ps.Bytes += size
	if delay <= tolerance {
		ps.OnTimeBytes += size
	}
	ps.Delays.Add(now, delay.Seconds())
	ps.DelaySeries.Add(now, delay.Seconds())
}

// BackgroundReader launches the paper's competing disk activity: a
// low-priority "cat" that sequentially reads a file through the Unix
// server as fast as the server lets it, looping forever. Each syscall
// covers 256 KB, but the server's cache issues disk requests of at most one
// read-ahead cluster (64 KB) — the B_other bound the admission test
// charges for. Because the Unix server is one thread, every cluster the
// cat waits on blocks the server for everyone, which is the priority
// inversion the paper attributes to the Unix file system.
func BackgroundReader(k *rtm.Kernel, srv *ufs.Server, path string, prio int, quantum sim.Time) *rtm.Thread {
	return k.NewThread("cat:"+path, prio, quantum, func(th *rtm.Thread) {
		c := ufs.NewClient(srv, th)
		fd, err := c.Open(path)
		if err != nil {
			return
		}
		st, err := c.Stat(path)
		if err != nil || st.Size == 0 {
			return
		}
		const req = 256 << 10
		var off int64
		for {
			data, err := c.Read(fd, off, req)
			if err != nil {
				return
			}
			off += int64(len(data))
			if int64(len(data)) < req {
				off = 0 // wrap: cat it again
			}
		}
	})
}

// RawScanner launches a backup-style scanner that reads the raw device
// sequentially on the normal disk queue, keeping qdepth requests in flight.
// Unlike the cats (which serialize behind the single Unix server thread),
// a scanner builds real queue depth — the situation the paper's split
// real-time/normal driver queue exists for: without the split, a
// continuous-media batch waits behind every queued scanner request.
func RawScanner(k *rtm.Kernel, d *disk.Disk, name string, reqBytes, qdepth int) *rtm.Thread {
	if reqBytes == 0 {
		reqBytes = 64 << 10
	}
	if qdepth == 0 {
		qdepth = 8
	}
	sectors := reqBytes / 512
	return k.NewThread(name, rtm.PrioTS, 0, func(th *rtm.Thread) {
		total := d.Geometry().TotalSectors()
		var lba int64
		inflight := 0
		for {
			for inflight < qdepth {
				inflight++
				d.Submit(&disk.Request{
					LBA: lba, Count: sectors,
					Done: func(r *disk.Request, _ []byte) {
						inflight--
						th.Proc().Unblock()
					},
				})
				lba += int64(sectors)
				if lba+int64(sectors) > total {
					lba = 0
				}
			}
			th.Proc().Block("scanner: queue full")
		}
	})
}

// CPUHog launches a thread that consumes the CPU in fixed bursts forever —
// the competing computation of Figure 10.
func CPUHog(k *rtm.Kernel, name string, prio int, quantum, burst sim.Time) *rtm.Thread {
	if burst == 0 {
		burst = 20 * time.Millisecond
	}
	return k.NewThread(name, prio, quantum, func(th *rtm.Thread) {
		for {
			th.Compute(burst)
		}
	})
}
