package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/media"
	"repro/internal/rtm"
)

func TestCRASPlayerPlaysMovie(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 5*time.Second)
	var stats PlayerStats
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600,
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
	}, func(m *lab.Machine) {
		CRASPlayer(m.Kernel, m.CRAS, movie, "/m", core.OpenOptions{}, PlayerConfig{}, &stats)
	})
	m.Run(12 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if !stats.Done {
		t.Fatal("player did not finish")
	}
	if stats.Lost != 0 {
		t.Fatalf("lost %d frames", stats.Lost)
	}
	if stats.Obtained != stats.Frames || stats.Frames != 150 {
		t.Fatalf("obtained %d of %d frames", stats.Obtained, stats.Frames)
	}
	if stats.OnTimeBytes != stats.Bytes {
		t.Fatal("unloaded playback should be fully on time")
	}
	if s := stats.Delays.Summary(); s.Max > 0.02 {
		t.Fatalf("max delay %.3fs on an unloaded machine", s.Max)
	}
	if stats.Throughput() < 150000 {
		t.Fatalf("throughput %.0f B/s, want ~187500", stats.Throughput())
	}
}

// A zero PlayerConfig runs both players in the real-time band, above the
// timesharing cats; a named priority is kept as given.
func TestPlayerDefaultPriority(t *testing.T) {
	movie := media.MPEG1().Generate("/m", time.Second)
	var threads [4]*rtm.Thread
	var stats [4]PlayerStats
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600,
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
	}, func(m *lab.Machine) {
		threads[0] = CRASPlayer(m.Kernel, m.CRAS, movie, "/m", core.OpenOptions{}, PlayerConfig{}, &stats[0])
		threads[1] = UFSPlayer(m.Kernel, m.Unix, movie, "/m", 0, PlayerConfig{}, &stats[1])
		threads[2] = CRASPlayer(m.Kernel, m.CRAS, movie, "/m", core.OpenOptions{}, PlayerConfig{Priority: rtm.PrioTS}, &stats[2])
		threads[3] = UFSPlayer(m.Kernel, m.Unix, movie, "/m", 0, PlayerConfig{Priority: rtm.PrioTS}, &stats[3])
	})
	m.Run(100 * time.Millisecond) // mount, then start the players
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want := [4]int{rtm.PrioRTLow, rtm.PrioRTLow, rtm.PrioTS, rtm.PrioTS}
	for i, th := range threads {
		if got := th.Priority(); got != want[i] {
			t.Errorf("%s: Priority() = %d, want %d", th.Name(), got, want[i])
		}
	}
}

func TestUFSPlayerPlaysMovie(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 5*time.Second)
	var stats PlayerStats
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600, NoCRAS: true,
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
	}, func(m *lab.Machine) {
		UFSPlayer(m.Kernel, m.Unix, movie, "/m", time.Second, PlayerConfig{}, &stats)
	})
	m.Run(12 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if !stats.Done || stats.Obtained != 150 {
		t.Fatalf("obtained %d frames, done=%v", stats.Obtained, stats.Done)
	}
	// One unloaded stream is within the UFS path's capability (the paper
	// supports up to nine without load).
	if s := stats.Delays.Summary(); s.Mean > 0.05 {
		t.Fatalf("mean UFS delay %.3fs for a single unloaded stream", s.Mean)
	}
}

// A miniature Figure 7: under background disk load, the UFS player's worst
// frame delay should exceed the CRAS player's by a wide margin.
func TestUFSJitterExceedsCRASUnderLoad(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 6*time.Second)
	bulk := media.MPEG1().Generate("/bulk", 10*time.Second)

	run := func(useCRAS bool) PlayerStats {
		var stats PlayerStats
		m := lab.Build(lab.Setup{
			Seed: 1, DiskCylinders: 900, NoCRAS: !useCRAS,
			Movies: []lab.Movie{{Path: "/m", Info: movie}, {Path: "/bulk", Info: bulk}},
		}, func(m *lab.Machine) {
			BackgroundReader(m.Kernel, m.Unix, "/bulk", rtm.PrioTS, 0)
			BackgroundReader(m.Kernel, m.Unix, "/bulk", rtm.PrioTS, 0)
			if useCRAS {
				CRASPlayer(m.Kernel, m.CRAS, movie, "/m", core.OpenOptions{}, PlayerConfig{}, &stats)
			} else {
				UFSPlayer(m.Kernel, m.Unix, movie, "/m", time.Second, PlayerConfig{}, &stats)
			}
		})
		m.Run(20 * time.Second)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return stats
	}

	crasStats := run(true)
	ufsStats := run(false)
	crasMax := crasStats.Delays.Summary().Max
	ufsMax := ufsStats.Delays.Summary().Max
	if crasStats.Lost > 2 {
		t.Fatalf("CRAS lost %d frames under load", crasStats.Lost)
	}
	if ufsMax < 2*crasMax {
		t.Fatalf("UFS max delay %.4fs vs CRAS %.4fs: expected clear separation", ufsMax, crasMax)
	}
}

func TestBackgroundReaderWrapsAround(t *testing.T) {
	small := media.CBRProfile{FrameRate: 30, Rate: 64000}.Generate("/small", time.Second)
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 400, NoCRAS: true,
		Movies: []lab.Movie{{Path: "/small", Info: small}},
	}, func(m *lab.Machine) {
		BackgroundReader(m.Kernel, m.Unix, "/small", rtm.PrioTS, 0)
	})
	m.Run(5 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	// A 64 KB file read in a loop for 5s must generate far more calls than
	// one pass would.
	if m.Unix.Calls < 50 {
		t.Fatalf("background reader made only %d server calls", m.Unix.Calls)
	}
}

func TestRawScannerKeepsQueueDeep(t *testing.T) {
	m := lab.Build(lab.Setup{Seed: 1, DiskCylinders: 400, NoCRAS: true},
		func(m *lab.Machine) {
			RawScanner(m.Kernel, m.Disk, "backup", 0, 0) // defaults: 64 KB, depth 8
		})
	m.Run(3 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	st := m.Disk.Stats()
	if st.MaxQueueDepth[0] < 6 {
		t.Fatalf("scanner max normal-queue depth = %d, want near 8", st.MaxQueueDepth[0])
	}
	// Near-continuous sequential I/O: the disk should be almost saturated.
	if st.BusyTime < 2500*time.Millisecond {
		t.Fatalf("disk busy only %v of 3s under the scanner", st.BusyTime)
	}
	if served := st.Served[0]; served < 100 {
		t.Fatalf("scanner completed only %d requests", served)
	}
}

func TestRawScannerWrapsAtDiskEnd(t *testing.T) {
	m := lab.Build(lab.Setup{Seed: 1, DiskCylinders: 160, DiskHeads: 2, NoCRAS: true},
		func(m *lab.Machine) {
			// A small disk: one pass takes ~3s, so the scanner must wrap
			// rather than run off the end.
			RawScanner(m.Kernel, m.Disk, "backup", 256<<10, 4)
		})
	m.Run(8 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	capacity := m.Disk.Geometry().Capacity()
	if moved := m.Disk.Stats().BytesMoved[0]; moved < capacity+capacity/2 {
		t.Fatalf("scanner moved %d bytes of a %d byte disk in 8s; did it wrap?", moved, capacity)
	}
}

func TestUFSPlayerMissingMovie(t *testing.T) {
	movie := media.MPEG1().Generate("/nosuch", time.Second)
	var stats PlayerStats
	m := lab.Build(lab.Setup{Seed: 1, DiskCylinders: 400, NoCRAS: true},
		func(m *lab.Machine) {
			UFSPlayer(m.Kernel, m.Unix, movie, "/nosuch", time.Second, PlayerConfig{}, &stats)
		})
	m.Run(3 * time.Second)
	if !stats.Done || stats.Obtained != 0 {
		t.Fatalf("player on missing movie: %+v", stats)
	}
}

func TestCRASPlayerAdmissionRejected(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 2*time.Second)
	var stats PlayerStats
	m := lab.Build(lab.Setup{
		Seed: 1, DiskCylinders: 600,
		Movies: []lab.Movie{{Path: "/m", Info: movie}},
		CRAS:   core.Config{BufferBudget: 1}, // nothing fits
	}, func(m *lab.Machine) {
		CRASPlayer(m.Kernel, m.CRAS, movie, "/m", core.OpenOptions{}, PlayerConfig{}, &stats)
	})
	m.Run(3 * time.Second)
	if !stats.Done || stats.Obtained != 0 {
		t.Fatalf("player past a rejected admission: %+v", stats)
	}
	if m.CRAS.Stats().AdmissionRejects != 1 {
		t.Fatal("admission reject not recorded")
	}
}

func TestCPUHogConsumesCPU(t *testing.T) {
	m := lab.Build(lab.Setup{Seed: 1, DiskCylinders: 400, NoCRAS: true},
		func(m *lab.Machine) {
			CPUHog(m.Kernel, "hog", rtm.PrioTS, 0, 0)
		})
	m.Run(3 * time.Second)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	// The hog should own essentially all CPU time after setup.
	if m.Kernel.Running() == nil {
		t.Fatal("hog not running")
	}
}

func TestPlayerStatsThroughputMath(t *testing.T) {
	var ps PlayerStats
	ps.Bytes = 1000000
	ps.OnTimeBytes = 500000
	ps.Span = 2 * time.Second
	if ps.Throughput() != 500000 {
		t.Fatalf("Throughput = %f", ps.Throughput())
	}
	if ps.OnTimeThroughput() != 250000 {
		t.Fatalf("OnTimeThroughput = %f", ps.OnTimeThroughput())
	}
	var empty PlayerStats
	if empty.Throughput() != 0 || empty.OnTimeThroughput() != 0 {
		t.Fatal("zero-span throughput should be 0")
	}
}
