package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/health"
	"repro/internal/media"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/ufs"
)

// TestDegradedOverCommitSuspends pins the honest admission response to a
// member death: a population force-opened past the degraded capacity is
// walked down to it — the newest streams are suspended with the
// over-commit reason, the oldest keep their service.
func TestDegradedOverCommitSuspends(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 4*time.Second)

	e := sim.NewEngine(11)
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads = 64, 2
	members := make([]*disk.Disk, 4)
	for i := range members {
		members[i] = disk.New(e, "sd"+string(rune('0'+i)), g, p)
	}
	vol, err := disk.NewParityVolume("vol0", members, 64)
	if err != nil {
		t.Fatalf("NewParityVolume: %v", err)
	}
	if _, err := ufs.Format(vol, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	var suspended []health.Cause
	opened := 0
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, vol, ufs.Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		if err := media.Store(pr, fs, "/m", movie); err != nil {
			t.Errorf("Store: %v", err)
			return
		}
		fs.Sync(pr)
		k := rtm.NewKernel(e)
		unix := ufs.NewServer(k, fs, rtm.PrioTS, 0)
		cras := NewVolumeServer(k, vol, unix, Config{
			Params:       MeasureAdmissionParams(members[0], 64<<10),
			InitialDelay: 2 * time.Second,
			BufferBudget: 1 << 30,
		})
		cras.OnStreamHealth = func(ev StreamHealthEvent) {
			if ev.To == Suspended {
				suspended = append(suspended, ev.Cause)
			}
		}
		k.NewThread("app", rtm.PrioRTLow, 0, func(th *rtm.Thread) {
			var handles []*Handle
			// Force far past what the degraded volume can carry, so the
			// re-evaluation after the kill must shed.
			for i := 0; i < 24; i++ {
				h, err := cras.Open(th, movie, "/m", OpenOptions{Force: true})
				if err != nil {
					t.Errorf("force-open %d: %v", i, err)
					return
				}
				h.Start(th)
				handles = append(handles, h)
			}
			opened = len(handles)
			th.Sleep(2 * time.Second)
			cras.FailMember(2)
			th.Sleep(2 * time.Second)
			for _, h := range handles {
				h.Close(th)
			}
		})
	})
	e.RunUntil(5 * time.Minute)

	if opened != 24 {
		t.Fatalf("opened %d streams, want 24", opened)
	}
	if len(suspended) == 0 {
		t.Fatalf("no stream was suspended after the member death")
	}
	for _, cause := range suspended {
		if cause != health.OverCommitted {
			t.Errorf("suspension cause = %v, want over-committed in degraded mode", cause)
		}
	}
	if len(suspended) >= 24 {
		t.Errorf("all %d streams suspended — the walk never re-admitted a fitting set", len(suspended))
	}
}

// TestDirectResolver pins the embedded-configuration path resolution: no
// Unix server, the calling thread reads the file system itself — both the
// playback block map and the preallocated record layout.
func TestDirectResolver(t *testing.T) {
	movie := media.MPEG1().Generate("/m", 2*time.Second)
	e := sim.NewEngine(5)
	g, p := disk.ST32550N()
	g.Cylinders = 600
	d := disk.New(e, "sd0", g, p)
	if _, err := ufs.Format(d, ufs.Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	ran := false
	e.Spawn("setup", func(pr *sim.Proc) {
		fs, err := ufs.Mount(pr, d, ufs.Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		if err := media.Store(pr, fs, "/m", movie); err != nil {
			t.Errorf("Store: %v", err)
			return
		}
		fs.Sync(pr)
		k := rtm.NewKernel(e)
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			r := DirectResolver(fs)
			blocks, size, err := r.ResolvePlayback(th, "/m")
			if err != nil {
				t.Errorf("ResolvePlayback: %v", err)
				return
			}
			if size != movie.TotalSize() || len(blocks) == 0 {
				t.Errorf("ResolvePlayback: %d blocks, size %d (movie is %d)",
					len(blocks), size, movie.TotalSize())
			}
			if _, _, err := r.ResolvePlayback(th, "/absent"); err == nil {
				t.Errorf("ResolvePlayback of a missing file succeeded")
			}
			rblocks, _, err := r.ResolveRecord(th, "/rec", 256<<10)
			if err != nil {
				t.Errorf("ResolveRecord: %v", err)
				return
			}
			if want := (256 << 10) / ufs.BlockSize; len(rblocks) < want {
				t.Errorf("ResolveRecord preallocated %d blocks, want >= %d", len(rblocks), want)
			}
			ran = true
		})
	})
	e.RunUntil(time.Minute)
	if !ran {
		t.Fatalf("resolver thread never completed")
	}
}

// TestSmallSurfaces sweeps tiny accessors the larger scenarios never
// touch: the logical clock's Now alias, the drain flag, the overload
// error's message and unwrap target, and the whole-file stripe footprint.
func TestSmallSurfaces(t *testing.T) {
	c := NewLogicalClock()
	c.Start(2*time.Second, 2*time.Second)
	if got, want := c.Now(3*time.Second), 1*time.Second; got != want {
		t.Errorf("clock Now = %v, want %v", got, want)
	}

	oe := &OverloadError{RetryAfter: time.Second, Reason: "queue full"}
	if !errors.Is(oe, ErrOverloaded) {
		t.Errorf("OverloadError does not unwrap to ErrOverloaded")
	}
	if oe.Error() == "" {
		t.Errorf("OverloadError has empty message")
	}

	e := sim.NewEngine(9)
	g, p := disk.ST32550N()
	g.Cylinders, g.Heads = 64, 2
	members := []*disk.Disk{
		disk.New(e, "sd0", g, p), disk.New(e, "sd1", g, p),
		disk.New(e, "sd2", g, p), disk.New(e, "sd3", g, p),
	}
	vol, err := disk.NewVolume("vol0", members, 64)
	if err != nil {
		t.Fatalf("NewVolume: %v", err)
	}
	// 64 contiguous blocks: a fully striped file spreads within one stripe
	// row of even across the members.
	blocks := make([]uint32, 64)
	for i := range blocks {
		blocks[i] = uint32(100 + i)
	}
	m, err := BuildExtentMap(blocks, int64(len(blocks))*ufs.BlockSize, 256<<10)
	if err != nil {
		t.Fatalf("BuildExtentMap: %v", err)
	}
	fp := m.DiskFootprint(vol)
	if len(fp) != 4 {
		t.Fatalf("DiskFootprint has %d entries, want 4", len(fp))
	}
	var total, min, max int64
	min = 1 << 62
	for _, sectors := range fp {
		total += sectors
		if sectors < min {
			min = sectors
		}
		if sectors > max {
			max = sectors
		}
	}
	if want := int64(len(blocks)) * ufs.SectorsPerBlock; total != want {
		t.Errorf("DiskFootprint total %d sectors, want %d", total, want)
	}
	if max-min > 64 {
		t.Errorf("DiskFootprint uneven beyond a stripe unit: %v", fp)
	}
}
