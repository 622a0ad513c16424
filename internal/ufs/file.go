package ufs

import (
	"repro/internal/sim"
)

// File is an open file handle. Handles carry per-open sequential-read state
// for read-ahead; all data state lives in the shared inode.
type File struct {
	fs  *FileSystem
	ino uint32

	lastFBN   int64 // last file block read, for sequential detection
	raCluster int64 // last cluster for which read-ahead was issued
}

// Ino returns the file's inode number.
func (f *File) Ino() uint32 { return f.ino }

// Size returns the current file size in bytes.
func (f *File) Size(p *sim.Proc) int64 { return f.fs.getInode(p, f.ino).Size }

// openByIno returns a handle on an existing inode.
func (fs *FileSystem) openByIno(ino uint32) *File {
	f := fs.handle(ino)
	return &f
}

// handle is a fresh handle on an inode, by value, for callers that keep it
// no longer than one call.
func (fs *FileSystem) handle(ino uint32) File {
	return File{fs: fs, ino: ino, lastFBN: -2, raCluster: -1}
}

// allocGoalFor returns the allocator goal for file block fbn: right after
// the previous block (contiguous layout), plus the RotDelay gap after every
// MaxContig blocks when the file system is configured with the historical
// FFS interleave. For the first block, the goal is the start of the data
// area in the inode's own group.
func (f *File) allocGoalFor(p *sim.Proc, fbn int64) uint32 {
	fs := f.fs
	if fbn > 0 {
		prev, err := fs.bmap(p, f.ino, fbn-1, 0)
		if err == nil && prev != 0 {
			goal := prev + 1
			if fs.sb.RotDelay > 0 && fbn%int64(fs.sb.MaxContig) == 0 {
				goal += fs.sb.RotDelay
			}
			return goal
		}
	}
	gi := int(f.ino / fs.sb.InodesPerGroup)
	g := fs.getGroup(p, gi)
	return g.dataStart(&fs.sb)
}

// WriteAt writes data at the byte offset, allocating blocks as needed and
// extending the file size. It returns the number of bytes written.
func (f *File) WriteAt(p *sim.Proc, data []byte, off int64) (int, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if in.Mode == ModeDir && off%dirEntSize != 0 {
		// Directories are written by the directory layer only.
		return 0, ErrIsDir
	}
	written := 0
	for written < len(data) {
		fbn := (off + int64(written)) / BlockSize
		bOff := int((off + int64(written)) % BlockSize)
		n := BlockSize - bOff
		if n > len(data)-written {
			n = len(data) - written
		}
		phys, err := fs.bmap(p, f.ino, fbn, f.allocGoalFor(p, fbn))
		if err != nil {
			return written, err
		}
		var buf []byte
		if bOff == 0 && n == BlockSize {
			buf = fs.cache.GetZero(p, int64(phys))
		} else {
			buf = fs.cache.Get(p, int64(phys))
		}
		copy(buf[bOff:], data[written:written+n])
		fs.cache.MarkDirty(int64(phys))
		written += n
	}
	if off+int64(written) > in.Size {
		in.Size = off + int64(written)
	}
	in.MTime = int64(fs.eng.Now())
	fs.markInodeDirty(f.ino)
	return written, nil
}

// Append writes data at the end of the file.
func (f *File) Append(p *sim.Proc, data []byte) (int, error) {
	return f.WriteAt(p, data, f.Size(p))
}

// Preallocate extends the file to newSize bytes by allocating blocks
// without writing their payloads. This is the extension the paper's
// conclusion calls for so that continuous media can later be *written* at a
// constant rate into already-placed blocks; it is also how experiments lay
// out multi-hundred-megabyte movie files without storing their bytes.
func (f *File) Preallocate(p *sim.Proc, newSize int64) error {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if newSize <= in.Size {
		return nil
	}
	first := in.Blocks()
	last := (newSize + BlockSize - 1) / BlockSize
	for fbn := first; fbn < last; fbn++ {
		if _, err := fs.bmap(p, f.ino, fbn, f.allocGoalFor(p, fbn)); err != nil {
			return err
		}
	}
	in.Size = newSize
	in.MTime = int64(fs.eng.Now())
	fs.markInodeDirty(f.ino)
	return nil
}

// ReadAt reads up to len(buf) bytes at the offset through the buffer cache,
// returning the count (short at end of file). Sequential reads trigger
// clustered read-ahead of the next window.
func (f *File) ReadAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	if off >= in.Size {
		return 0, nil
	}
	n := len(buf)
	if int64(n) > in.Size-off {
		n = int(in.Size - off)
	}
	read := 0
	for read < n {
		fbn := (off + int64(read)) / BlockSize
		bOff := int((off + int64(read)) % BlockSize)
		c := BlockSize - bOff
		if c > n-read {
			c = n - read
		}
		phys, err := fs.bmap(p, f.ino, fbn, 0)
		if err != nil {
			return read, err
		}
		if phys == 0 {
			for i := 0; i < c; i++ {
				buf[read+i] = 0
			}
		} else {
			data := fs.cache.Get(p, int64(phys))
			copy(buf[read:read+c], data[bOff:])
		}
		sequential := fbn == f.lastFBN+1 || fbn == f.lastFBN
		f.lastFBN = fbn
		if sequential && fs.readAhead > 0 {
			f.readAheadFrom(p, fbn+1)
		}
		read += c
	}
	return read, nil
}

// readAheadFrom implements FFS-style clustered read-ahead: once per
// read-ahead cluster (ReadAheadBlocks blocks, 64 KB by default), it
// prefetches through the end of the *next* cluster with as few large disk
// requests as the physical layout allows. Firing once per cluster rather
// than once per block is what keeps sequential UFS reads in big transfers
// instead of a stream of 8 KB requests, each paying command and rotation
// costs.
func (f *File) readAheadFrom(p *sim.Proc, from int64) {
	fs := f.fs
	cluster := int64(fs.readAhead)
	if cluster <= 0 || from < 1 {
		return
	}
	cur := (from - 1) / cluster // cluster of the block just read
	if cur == f.raCluster {
		return
	}
	f.raCluster = cur
	end := (cur + 2) * cluster // through the end of the next cluster
	maxFBN := fs.getInode(p, f.ino).Blocks()
	if end > maxFBN {
		end = maxFBN
	}
	var runStart uint32
	var runLen int
	flush := func() {
		if runLen > 0 {
			fs.cache.Prefetch(int64(runStart), runLen)
			runStart, runLen = 0, 0
		}
	}
	for b := from; b < end; b++ {
		phys, err := fs.bmap(p, f.ino, b, 0)
		if err != nil || phys == 0 {
			break
		}
		if fs.cache.Contains(int64(phys)) {
			flush()
			continue
		}
		switch {
		case runLen == 0:
			runStart, runLen = phys, 1
		case phys == runStart+uint32(runLen):
			runLen++
		default:
			flush()
			runStart, runLen = phys, 1
		}
	}
	flush()
}

// BlockMap returns the physical block of every file block (0 for holes).
// CRAS calls this through the Unix server at open time and schedules its
// raw real-time reads from the result.
func (f *File) BlockMap(p *sim.Proc) ([]uint32, error) {
	fs := f.fs
	in := fs.getInode(p, f.ino)
	out := make([]uint32, in.Blocks())
	for i := range out {
		phys, err := fs.bmap(p, f.ino, int64(i), 0)
		if err != nil {
			return nil, err
		}
		out[i] = phys
	}
	return out, nil
}

// truncateToZero releases every data and indirect block of an inode.
func (fs *FileSystem) truncateToZero(p *sim.Proc, ino uint32) {
	in := fs.getInode(p, ino)
	for i, blk := range in.Direct {
		fs.freeBlock(p, blk)
		in.Direct[i] = 0
	}
	freeIndirect := func(blk uint32) {
		if blk == 0 {
			return
		}
		buf := fs.cache.Get(p, int64(blk))
		ptrs := make([]uint32, PtrsPerBlock)
		for i := range ptrs {
			ptrs[i] = leUint32(buf[i*4:])
		}
		for _, ptr := range ptrs {
			fs.freeBlock(p, ptr)
		}
		fs.freeBlock(p, blk)
	}
	if in.DIndirect != 0 {
		buf := fs.cache.Get(p, int64(in.DIndirect))
		l1s := make([]uint32, PtrsPerBlock)
		for i := range l1s {
			l1s[i] = leUint32(buf[i*4:])
		}
		for _, l1 := range l1s {
			freeIndirect(l1)
		}
		fs.freeBlock(p, in.DIndirect)
		in.DIndirect = 0
	}
	freeIndirect(in.Indirect)
	in.Indirect = 0
	in.Size = 0
	fs.markInodeDirty(ino)
}
