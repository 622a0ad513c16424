package ufs

import (
	"errors"
	"strings"

	"repro/internal/sim"
)

// Directory entries are fixed 64-byte records: inode number, file type,
// name length, then the name. An entry with inode 0 is free.
const (
	dirEntSize = 64
	maxNameLen = dirEntSize - 6
)

type dirEnt struct {
	ino   uint32
	ftype uint8
	name  string
}

func (e *dirEnt) encode(buf []byte) {
	putLeUint32(buf[0:], e.ino)
	buf[4] = e.ftype
	buf[5] = uint8(len(e.name))
	copy(buf[6:], e.name)
	for i := 6 + len(e.name); i < dirEntSize; i++ {
		buf[i] = 0
	}
}

func (e *dirEnt) decode(buf []byte) {
	e.ino = leUint32(buf[0:])
	e.ftype = buf[4]
	e.name = string(entName(buf))
}

// entName is the name bytes of the raw directory record rec, in place.
func entName(rec []byte) []byte {
	n := int(rec[5])
	if n > maxNameLen {
		n = maxNameLen
	}
	return rec[6 : 6+n]
}

// DirEntry is a name/inode pair returned by ReadDir.
type DirEntry struct {
	Name  string
	Ino   uint32
	IsDir bool
}

// takeDirBuf lends the caller an n-byte directory read buffer: the file
// system's own when it is free, a fresh one when another process holds it
// (blocked in its directory read). putDirBuf gives it back.
func (fs *FileSystem) takeDirBuf(n int64) []byte {
	b := fs.dirBuf
	fs.dirBuf = nil
	if int64(cap(b)) < n {
		b = make([]byte, n)
	}
	return b[:n]
}

// putDirBuf returns a buffer from takeDirBuf, keeping the larger of it and
// whichever buffer the file system holds now.
func (fs *FileSystem) putDirBuf(b []byte) {
	if cap(b) > cap(fs.dirBuf) {
		fs.dirBuf = b
	}
}

// readDir reads every record of a directory inode into a buffer from
// takeDirBuf, which the caller gives back with putDirBuf. Bytes past a
// short read are zeroed — free slots, as in a fresh buffer — so stale bytes
// of an earlier lookup never read as entries.
func (fs *FileSystem) readDir(p *sim.Proc, dirIno uint32) ([]byte, error) {
	f := fs.handle(dirIno)
	raw := fs.takeDirBuf(f.Size(p))
	n, err := f.ReadAt(p, raw, 0)
	if err != nil {
		fs.putDirBuf(raw)
		return nil, err
	}
	clear(raw[n:])
	return raw, nil
}

// readDirEnts scans every entry of a directory inode.
func (fs *FileSystem) readDirEnts(p *sim.Proc, dirIno uint32) ([]dirEnt, error) {
	raw, err := fs.readDir(p, dirIno)
	if err != nil {
		return nil, err
	}
	var out []dirEnt
	for off := 0; off+dirEntSize <= len(raw); off += dirEntSize {
		var e dirEnt
		e.decode(raw[off : off+dirEntSize])
		out = append(out, e)
	}
	fs.putDirBuf(raw)
	return out, nil
}

// dirLookup finds name in the directory, returning its entry index and
// inode. It compares names in the raw records, building no strings.
func (fs *FileSystem) dirLookup(p *sim.Proc, dirIno uint32, name string) (idx int, ino uint32, err error) {
	raw, err := fs.readDir(p, dirIno)
	if err != nil {
		return 0, 0, err
	}
	defer fs.putDirBuf(raw)
	for off := 0; off+dirEntSize <= len(raw); off += dirEntSize {
		rec := raw[off : off+dirEntSize]
		if ino := leUint32(rec); ino != 0 && string(entName(rec)) == name {
			return off / dirEntSize, ino, nil
		}
	}
	return 0, 0, ErrNotFound
}

// dirAdd inserts an entry, reusing a free slot if available.
func (fs *FileSystem) dirAdd(p *sim.Proc, dirIno uint32, name string, ino uint32, ftype uint8) error {
	if len(name) == 0 || len(name) > maxNameLen || strings.Contains(name, "/") {
		return ErrNameTooLong
	}
	raw, err := fs.readDir(p, dirIno)
	if err != nil {
		return err
	}
	slot := int64(len(raw) / dirEntSize)
	for off := 0; off+dirEntSize <= len(raw); off += dirEntSize {
		if leUint32(raw[off:]) == 0 {
			slot = int64(off / dirEntSize)
			break
		}
	}
	fs.putDirBuf(raw)
	buf := make([]byte, dirEntSize)
	(&dirEnt{ino: ino, ftype: ftype, name: name}).encode(buf)
	f := fs.openByIno(dirIno)
	_, err = f.WriteAt(p, buf, slot*dirEntSize)
	return err
}

// dirRemove clears the entry for name.
func (fs *FileSystem) dirRemove(p *sim.Proc, dirIno uint32, name string) error {
	idx, _, err := fs.dirLookup(p, dirIno, name)
	if err != nil {
		return err
	}
	buf := make([]byte, dirEntSize) // ino 0 = free slot
	f := fs.openByIno(dirIno)
	_, err = f.WriteAt(p, buf, int64(idx)*dirEntSize)
	return err
}

// splitPath splits "/a/b/c" into components. An empty or "/" path yields
// nil (the root itself).
func splitPath(path string) []string {
	var out []string
	for _, part := range strings.Split(path, "/") {
		if part != "" && part != "." {
			out = append(out, part)
		}
	}
	return out
}

// namei resolves a path to an inode number.
func (fs *FileSystem) namei(p *sim.Proc, path string) (uint32, error) {
	cur := uint32(RootIno)
	for _, part := range splitPath(path) {
		in := fs.getInode(p, cur)
		if in.Mode != ModeDir {
			return 0, ErrNotDir
		}
		_, next, err := fs.dirLookup(p, cur, part)
		if err != nil {
			return 0, err
		}
		cur = next
	}
	return cur, nil
}

// nameiParent resolves the directory containing the path's final component.
func (fs *FileSystem) nameiParent(p *sim.Proc, path string) (parent uint32, name string, err error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return 0, "", ErrExists // the root itself
	}
	name = parts[len(parts)-1]
	cur := uint32(RootIno)
	for _, part := range parts[:len(parts)-1] {
		in := fs.getInode(p, cur)
		if in.Mode != ModeDir {
			return 0, "", ErrNotDir
		}
		_, next, err := fs.dirLookup(p, cur, part)
		if err != nil {
			return 0, "", err
		}
		cur = next
	}
	return cur, name, nil
}

// Open returns a handle on an existing file.
func (fs *FileSystem) Open(p *sim.Proc, path string) (*File, error) {
	ino, err := fs.namei(p, path)
	if err != nil {
		return nil, err
	}
	if fs.getInode(p, ino).Mode == ModeDir {
		return nil, ErrIsDir
	}
	return fs.openByIno(ino), nil
}

// Create makes a new empty file. The inode is placed in the parent
// directory's group when possible, as FFS does.
func (fs *FileSystem) Create(p *sim.Proc, path string) (*File, error) {
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return nil, err
	}
	if _, _, err := fs.dirLookup(p, parent, name); err == nil {
		return nil, ErrExists
	}
	ino, err := fs.allocInode(p, int(parent/fs.sb.InodesPerGroup), ModeFile)
	if err != nil {
		return nil, err
	}
	if err := fs.dirAdd(p, parent, name, ino, ModeFile); err != nil {
		fs.freeInode(p, ino)
		return nil, err
	}
	return fs.openByIno(ino), nil
}

// Mkdir creates a directory. New directories spread across groups to
// balance allocation, following the FFS heuristic of placing directories in
// emptier groups — approximated here by round-robin on the name hash.
func (fs *FileSystem) Mkdir(p *sim.Proc, path string) error {
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return err
	}
	if _, _, err := fs.dirLookup(p, parent, name); err == nil {
		return ErrExists
	}
	near := 0
	for _, c := range name {
		near = (near + int(c)) % int(fs.sb.NGroups)
	}
	ino, err := fs.allocInode(p, near, ModeDir)
	if err != nil {
		return err
	}
	if err := fs.dirAdd(p, parent, name, ino, ModeDir); err != nil {
		fs.freeInode(p, ino)
		return err
	}
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FileSystem) MkdirAll(p *sim.Proc, path string) error {
	parts := splitPath(path)
	cur := ""
	for _, part := range parts {
		cur += "/" + part
		if err := fs.Mkdir(p, cur); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

// Unlink removes a file, releasing its blocks and inode. Directories must
// be empty.
func (fs *FileSystem) Unlink(p *sim.Proc, path string) error {
	parent, name, err := fs.nameiParent(p, path)
	if err != nil {
		return err
	}
	_, ino, err := fs.dirLookup(p, parent, name)
	if err != nil {
		return err
	}
	in := fs.getInode(p, ino)
	if in.Mode == ModeDir {
		ents, err := fs.readDirEnts(p, ino)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.ino != 0 {
				return ErrExists // directory not empty
			}
		}
	}
	if err := fs.dirRemove(p, parent, name); err != nil {
		return err
	}
	in.NLink--
	if in.NLink == 0 {
		fs.truncateToZero(p, ino)
		fs.freeInode(p, ino)
	} else {
		fs.markInodeDirty(ino)
	}
	return nil
}

// ReadDir lists a directory.
func (fs *FileSystem) ReadDir(p *sim.Proc, path string) ([]DirEntry, error) {
	ino, err := fs.namei(p, path)
	if err != nil {
		return nil, err
	}
	if fs.getInode(p, ino).Mode != ModeDir {
		return nil, ErrNotDir
	}
	ents, err := fs.readDirEnts(p, ino)
	if err != nil {
		return nil, err
	}
	var out []DirEntry
	for _, e := range ents {
		if e.ino != 0 {
			out = append(out, DirEntry{Name: e.name, Ino: e.ino, IsDir: e.ftype == ModeDir})
		}
	}
	return out, nil
}

// Stat describes a file for applications.
type Stat struct {
	Ino    uint32
	Size   int64
	IsDir  bool
	Blocks int64
}

// Stat returns file metadata.
func (fs *FileSystem) Stat(p *sim.Proc, path string) (Stat, error) {
	ino, err := fs.namei(p, path)
	if err != nil {
		return Stat{}, err
	}
	in := fs.getInode(p, ino)
	return Stat{Ino: ino, Size: in.Size, IsDir: in.Mode == ModeDir, Blocks: in.Blocks()}, nil
}
