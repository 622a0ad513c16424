package ufs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// makeDir creates dir holding n files named f000, f001, ... and returns the
// directory's inode.
func makeDir(t testing.TB, p *sim.Proc, fs *FileSystem, dir string, n int) uint32 {
	t.Helper()
	if err := fs.Mkdir(p, dir); err != nil {
		t.Fatalf("Mkdir %s: %v", dir, err)
	}
	for i := 0; i < n; i++ {
		if _, err := fs.Create(p, fmt.Sprintf("%s/f%03d", dir, i)); err != nil {
			t.Fatalf("Create %s/f%03d: %v", dir, i, err)
		}
	}
	st, err := fs.Stat(p, dir)
	if err != nil {
		t.Fatalf("Stat %s: %v", dir, err)
	}
	return st.Ino
}

// dropDirBlocks evicts a directory's data blocks from the buffer cache (its
// inode stays cached), so the next lookup in it blocks in the disk read.
func dropDirBlocks(t *testing.T, p *sim.Proc, fs *FileSystem, ino uint32) {
	t.Helper()
	fs.Sync(p)
	for fbn := int64(0); fbn < fs.getInode(p, ino).Blocks(); fbn++ {
		phys, err := fs.bmap(p, ino, fbn, 0)
		if err != nil {
			t.Fatalf("bmap: %v", err)
		}
		fs.cache.Invalidate(int64(phys))
	}
}

// Two processes look up while the first is blocked in its directory read:
// the second must not share the first's buffer, whether it reads the same
// directory or another one, and both must find what they look for.
func TestDirLookupConcurrentProcesses(t *testing.T) {
	for _, second := range []string{"/d", "/e"} {
		t.Run(strings.TrimPrefix(second, "/"), func(t *testing.T) {
			withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
				d := makeDir(t, p, fs, "/d", 300)
				e := makeDir(t, p, fs, "/e", 40)
				dropDirBlocks(t, p, fs, d)
				dropDirBlocks(t, p, fs, e)
				ino := map[string]uint32{}
				for _, path := range []string{"/d/f017", "/d/f299", "/e/f033"} {
					st, err := fs.Stat(p, path)
					if err != nil {
						t.Fatalf("Stat %s: %v", path, err)
					}
					ino[path] = st.Ino
				}
				dropDirBlocks(t, p, fs, d)
				dropDirBlocks(t, p, fs, e)

				eng := p.Engine()
				type result struct {
					idx int
					ino uint32
					err error
				}
				var r1, r2 result
				first := eng.Spawn("first", func(q *sim.Proc) {
					r1.idx, r1.ino, r1.err = fs.dirLookup(q, d, "f017")
				})
				want2, name2, dir2 := ino["/d/f299"], "f299", d
				if second == "/e" {
					want2, name2, dir2 = ino["/e/f033"], "f033", e
				}
				eng.Spawn("second", func(q *sim.Proc) {
					if first.BlockedReason() == "" {
						t.Errorf("first lookup is not blocked in its directory read")
					}
					r2.idx, r2.ino, r2.err = fs.dirLookup(q, dir2, name2)
				})
				for !first.Dead() {
					p.Sleep(1e6)
				}
				p.Sleep(1e9)
				if r1.err != nil || r1.ino != ino["/d/f017"] || r1.idx != 17 {
					t.Errorf("first lookup = %+v, want slot 17 ino %d", r1, ino["/d/f017"])
				}
				if r2.err != nil || r2.ino != want2 {
					t.Errorf("second lookup %s/%s = %+v, want ino %d", second, name2, r2, want2)
				}
				if int64(cap(fs.dirBuf)) < 300*dirEntSize {
					t.Errorf("directory buffer not given back: cap %d", cap(fs.dirBuf))
				}
			})
		})
	}
}

// Names compare whole: a name that is a prefix of another, or has one as
// its prefix, never matches it.
func TestDirLookupPrefixNames(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		inos := map[string]uint32{}
		for _, name := range []string{"movie1", "movie", "mov"} {
			f, err := fs.Create(p, "/"+name)
			if err != nil {
				t.Fatalf("Create %s: %v", name, err)
			}
			inos[name] = f.Ino()
		}
		for name, want := range inos {
			if _, ino, err := fs.dirLookup(p, RootIno, name); err != nil || ino != want {
				t.Errorf("lookup %q = ino %d, %v; want %d", name, ino, err, want)
			}
		}
		for _, name := range []string{"movi", "movie12", "m", "movie1 "} {
			if _, _, err := fs.dirLookup(p, RootIno, name); !errors.Is(err, ErrNotFound) {
				t.Errorf("lookup %q = %v, want ErrNotFound", name, err)
			}
		}
	})
}

// A name of the longest allowed length fills its record to the last byte;
// it is found, and a name one byte longer is neither created nor matched.
func TestDirLookupMaxLengthName(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		name := strings.Repeat("n", maxNameLen-1) + "z"
		if len(name) != 58 {
			t.Fatalf("maxNameLen = %d, want 58", len(name))
		}
		f, err := fs.Create(p, "/"+name)
		if err != nil {
			t.Fatalf("Create 58-byte name: %v", err)
		}
		if _, ino, err := fs.dirLookup(p, RootIno, name); err != nil || ino != f.Ino() {
			t.Errorf("lookup 58-byte name = ino %d, %v; want %d", ino, err, f.Ino())
		}
		if _, _, err := fs.dirLookup(p, RootIno, name+"z"); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup 59-byte name = %v, want ErrNotFound", err)
		}
		if _, err := fs.Create(p, "/"+name+"z"); !errors.Is(err, ErrNameTooLong) {
			t.Errorf("Create 59-byte name = %v, want ErrNameTooLong", err)
		}
	})
}

// An unlinked name is gone even though its record's name bytes are only
// freed, not erased; its slot is the next one reused.
func TestDirLookupAfterRemove(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		for _, name := range []string{"/a", "/b", "/c"} {
			if _, err := fs.Create(p, name); err != nil {
				t.Fatalf("Create %s: %v", name, err)
			}
		}
		idx, _, err := fs.dirLookup(p, RootIno, "b")
		if err != nil {
			t.Fatalf("lookup b: %v", err)
		}
		if err := fs.Unlink(p, "/b"); err != nil {
			t.Fatalf("Unlink: %v", err)
		}
		if _, _, err := fs.dirLookup(p, RootIno, "b"); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup after Unlink = %v, want ErrNotFound", err)
		}
		if _, err := fs.Create(p, "/d"); err != nil {
			t.Fatalf("Create d: %v", err)
		}
		if got, _, err := fs.dirLookup(p, RootIno, "d"); err != nil || got != idx {
			t.Errorf("d took slot %d (%v), want b's free slot %d", got, err, idx)
		}
	})
}

// A directory read that comes up short of a whole record — the directory
// ends inside it — must not match the record, nor any stale bytes a larger
// directory left in the reused buffer past the end of this read.
func TestDirLookupShortRead(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		big := makeDir(t, p, fs, "/big", 20)
		small := makeDir(t, p, fs, "/small", 4)
		// Fill the buffer with /big's records.
		if _, _, err := fs.dirLookup(p, big, "f019"); err != nil {
			t.Fatalf("lookup in /big: %v", err)
		}
		if _, _, err := fs.dirLookup(p, small, "f019"); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup of a /big name in /small = %v, want ErrNotFound", err)
		}
		// Cut /small inside its last record: ino, type, length and four
		// name bytes of f003 are read, the rest of the record is not.
		in := fs.getInode(p, small)
		in.Size = 3*dirEntSize + 10
		if _, _, err := fs.dirLookup(p, big, "f019"); err != nil {
			t.Fatalf("lookup in /big: %v", err)
		}
		if _, _, err := fs.dirLookup(p, small, "f003"); !errors.Is(err, ErrNotFound) {
			t.Errorf("lookup of the cut record = %v, want ErrNotFound", err)
		}
		if idx, _, err := fs.dirLookup(p, small, "f002"); err != nil || idx != 2 {
			t.Errorf("lookup of the last whole record = slot %d, %v; want 2", idx, err)
		}
	})
}

// A warm lookup — directory blocks and inode cached — allocates nothing.
func TestDirLookupAllocs(t *testing.T) {
	withFS(t, Options{}, func(p *sim.Proc, fs *FileSystem) {
		d := makeDir(t, p, fs, "/d", 512)
		if _, _, err := fs.dirLookup(p, d, "f511"); err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := fs.dirLookup(p, d, "f511"); err != nil {
				t.Fatalf("lookup: %v", err)
			}
		}); allocs != 0 {
			t.Errorf("warm dirLookup in a 512-entry directory: %v allocs, want 0", allocs)
		}
	})
}

// BenchmarkDirLookup is the ufs layer's name lookup: one op is one warm
// dirLookup of the last name in a 512-entry directory.
func BenchmarkDirLookup(b *testing.B) {
	e := sim.NewEngine(1)
	d := smallDisk(e)
	if _, err := Format(d, Options{}); err != nil {
		b.Fatalf("Format: %v", err)
	}
	e.Spawn("bench", func(p *sim.Proc) {
		fs, err := Mount(p, d, Options{})
		if err != nil {
			b.Errorf("Mount: %v", err)
			return
		}
		dir := makeDir(b, p, fs, "/d", 512)
		if _, _, err := fs.dirLookup(p, dir, "f511"); err != nil {
			b.Errorf("lookup: %v", err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := fs.dirLookup(p, dir, "f511"); err != nil {
				b.Errorf("lookup: %v", err)
				return
			}
		}
	})
	e.Run()
}
