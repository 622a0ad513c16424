package ufs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/rtm"
	"repro/internal/sim"
)

// withServer builds a kernel, a formatted disk, a mounted FS, and the Unix
// server, then runs client bodies as threads.
func withServer(t testing.TB, fn func(k *rtm.Kernel, srv *Server)) {
	t.Helper()
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, Options{}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	k := rtm.NewKernel(e)
	e.Spawn("setup", func(p *sim.Proc) {
		fs, err := Mount(p, d, Options{})
		if err != nil {
			t.Errorf("Mount: %v", err)
			return
		}
		srv := NewServer(k, fs, rtm.PrioTS, 0)
		fn(k, srv)
	})
	e.Run()
}

func TestServerCreateWriteRead(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		data := bytes.Repeat([]byte{7}, 3*BlockSize)
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, err := c.Create("/file")
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			if n, err := c.Write(fd, 0, data); err != nil || n != len(data) {
				t.Errorf("Write = %d, %v", n, err)
				return
			}
			got, err := c.Read(fd, BlockSize, BlockSize)
			if err != nil || !bytes.Equal(got, data[BlockSize:2*BlockSize]) {
				t.Errorf("Read mismatch: %v", err)
			}
			if err := c.Close(fd); err != nil {
				t.Errorf("Close: %v", err)
			}
			if _, err := c.Read(fd, 0, 1); err == nil {
				t.Error("Read on closed fd succeeded")
			}
		})
	})
}

func TestServerBlockMapAndPreallocate(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, _ := c.Create("/movie")
			if err := c.Preallocate(fd, 40*BlockSize); err != nil {
				t.Errorf("Preallocate: %v", err)
				return
			}
			blocks, size, err := c.BlockMap(fd)
			if err != nil || size != 40*BlockSize || len(blocks) != 40 {
				t.Errorf("BlockMap = %d blocks, size %d, %v", len(blocks), size, err)
			}
		})
	})
}

func TestServerSerializesClients(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		// Two clients interleave many operations; the single server thread
		// must keep state consistent and reply to each correctly.
		mk := func(name, path string) {
			k.NewThread(name, rtm.PrioTS, 0, func(th *rtm.Thread) {
				c := NewClient(srv, th)
				fd, err := c.Create(path)
				if err != nil {
					t.Errorf("%s Create: %v", name, err)
					return
				}
				payload := bytes.Repeat([]byte(name[:1]), 512)
				for i := 0; i < 10; i++ {
					if _, err := c.Write(fd, int64(i*512), payload); err != nil {
						t.Errorf("%s Write: %v", name, err)
						return
					}
				}
				got, _ := c.Read(fd, 0, 512)
				if len(got) != 512 || got[0] != name[0] {
					t.Errorf("%s read back wrong data", name)
				}
			})
		}
		mk("a", "/fa")
		mk("b", "/fb")
	})
}

func TestServerStatUnlinkDirOps(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			if err := c.Mkdir("/docs"); err != nil {
				t.Errorf("Mkdir: %v", err)
			}
			fd, _ := c.Create("/docs/x")
			c.Write(fd, 0, []byte("data"))
			st, err := c.Stat("/docs/x")
			if err != nil || st.Size != 4 {
				t.Errorf("Stat = %+v, %v", st, err)
			}
			ents, err := c.ReadDir("/docs")
			if err != nil || len(ents) != 1 || ents[0].Name != "x" {
				t.Errorf("ReadDir = %v, %v", ents, err)
			}
			if err := c.Sync(); err != nil {
				t.Errorf("Sync: %v", err)
			}
			if err := c.Unlink("/docs/x"); err != nil {
				t.Errorf("Unlink: %v", err)
			}
			if _, err := c.Open("/docs/x"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Open after unlink = %v", err)
			}
		})
	})
}

func TestServerTracksCallCount(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			c.Stat("/")
			c.Stat("/")
			if srv.Calls != 2 {
				t.Errorf("Calls = %d, want 2", srv.Calls)
			}
		})
	})
}

// A high-priority client's request can be delayed by a low-priority
// client's request already occupying the single server thread — the
// priority inversion the paper attributes to the Unix file system.
func TestServerPriorityInversionExists(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		var hiStart, hiEnd sim.Time
		k.NewThread("lowprio-cat", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, _ := c.Create("/bulk")
			c.Write(fd, 0, make([]byte, 32*BlockSize))
			for i := 0; i < 50; i++ {
				c.Read(fd, int64(i%32)*BlockSize, BlockSize)
			}
		})
		k.NewThread("rt-player", rtm.PrioRT, 0, func(th *rtm.Thread) {
			th.Sleep(5 * time.Millisecond)
			c := NewClient(srv, th)
			hiStart = k.Now()
			c.Stat("/")
			hiEnd = k.Now()
		})
		_ = hiStart
		_ = hiEnd
	})
	// No assertion on magnitude here (that is Figure 7's job); the
	// measured delay just must exist and the run must terminate.
}

// withReader runs body on a client thread holding an open 4 MB file, twice
// the default cache, so sequential reads wrap onto blocks the cache has
// since dropped.
func withReader(tb testing.TB, body func(c *Client, fd int)) {
	withServer(tb, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("reader", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c := NewClient(srv, th)
			fd, err := c.Create("/movie")
			if err != nil {
				tb.Errorf("Create: %v", err)
				return
			}
			if err := c.Preallocate(fd, readerFileSize); err != nil {
				tb.Errorf("Preallocate: %v", err)
				return
			}
			body(c, fd)
		})
	})
}

const readerFileSize = 4 << 20

// readCached reads the file's first block, a cache hit once warm.
func readCached(tb testing.TB, c *Client, fd int) {
	if got, err := c.Read(fd, 0, BlockSize); err != nil || len(got) != BlockSize {
		tb.Fatalf("cached read = %d bytes, %v", len(got), err)
	}
}

// sequential returns a function that reads the file in 256 KB calls from
// the start, wrapping at the end the way the background cat does.
func sequential(tb testing.TB, c *Client, fd int) func() {
	var off int64
	return func() {
		const req = 256 << 10
		got, err := c.Read(fd, off, req)
		if err != nil || len(got) != req {
			tb.Fatalf("read at %d = %d bytes, %v", off, len(got), err)
		}
		off = (off + req) % readerFileSize
	}
}

// BenchmarkUFSRead is the ufs layer's read path through the Unix server:
// one op is one Client.Read — a cached 8 KB block, or the next 256 KB of a
// sequential scan served by clustered read-ahead.
func BenchmarkUFSRead(b *testing.B) {
	b.Run("Cached8K", func(b *testing.B) {
		withReader(b, func(c *Client, fd int) {
			readCached(b, c, fd)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				readCached(b, c, fd)
			}
			b.StopTimer()
		})
	})
	b.Run("Sequential256K", func(b *testing.B) {
		withReader(b, func(c *Client, fd int) {
			next := sequential(b, c, fd)
			for i := 0; i < readerFileSize/(256<<10); i++ {
				next() // one full pass: every frame and record made
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
			}
			b.StopTimer()
		})
	})
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates over runs calls.
func allocBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A warm read moves its payload through frames, staging buffers and a reply
// buffer that already exist. A cached 8 KB read allocates only the timers
// of the server's two CPU bursts (syscall and per-block cost); a 256 KB
// sequential read adds the disk's events for its read-ahead, well under
// one block of bytes where it used to allocate its whole payload twice.
func TestUFSReadAllocs(t *testing.T) {
	withReader(t, func(c *Client, fd int) {
		const (
			reads       = 1000
			burstTimers = 2
		)
		// One run of all the reads, after as many to warm up (AllocsPerRun
		// runs its function once first): it rounds its mean down.
		if allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < reads; i++ {
				readCached(t, c, fd)
			}
		}); allocs > reads*burstTimers {
			t.Errorf("%d cached 8 KB reads: %v allocs, want at most %d", reads, allocs, reads*burstTimers)
		}
		next := sequential(t, c, fd)
		for i := 0; i < readerFileSize/(256<<10); i++ {
			next() // one full pass: every frame and record made
		}
		if b := allocBytesPerRun(32, next); b >= BlockSize {
			t.Errorf("sequential 256 KB read: %d bytes allocated, want under one block (%d)", b, BlockSize)
		}
	})
}

// Client.Read returns the client's reply buffer: valid until that client's
// next call, which reuses it, and never shared with another client.
func TestClientReadReplyBuffer(t *testing.T) {
	withServer(t, func(k *rtm.Kernel, srv *Server) {
		k.NewThread("app", rtm.PrioTS, 0, func(th *rtm.Thread) {
			c, other := NewClient(srv, th), NewClient(srv, th)
			fd, _ := c.Create("/f")
			c.Write(fd, 0, append(bytes.Repeat([]byte{1}, BlockSize), bytes.Repeat([]byte{2}, BlockSize)...))
			first, err := c.Read(fd, 0, BlockSize)
			if err != nil || first[0] != 1 {
				t.Errorf("first read = %v, %v", first[:1], err)
				return
			}
			mine, err := other.Read(fd, BlockSize, BlockSize)
			if err != nil || mine[0] != 2 || first[0] != 1 {
				t.Errorf("another client's read touched this client's reply buffer")
			}
			second, err := c.Read(fd, BlockSize, BlockSize)
			if err != nil || second[0] != 2 {
				t.Errorf("second read = %v, %v", second[:1], err)
				return
			}
			if &first[0] != &second[0] || first[0] != 2 {
				t.Error("the client's next read did not reuse its reply buffer")
			}
		})
	})
}
