package durable

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// memFS is an in-memory fs with a POSIX crash model, for tests.
//
// Each file keeps its contents apart from what the last fsync made
// durable, and the directory keeps the creations, renames and removals
// that no directory fsync has made durable yet.  crash replaces the
// whole file system by one a power loss could leave:
//
//   - a file keeps its synced bytes; an unsynced tail is dropped, or
//     torn at a seeded point short of its end;
//   - a truncation no later fsync of its file made durable may revert;
//   - each creation, rename or removal no later fsync of its directory
//     made durable may revert, on its own, whatever became of the
//     others.
//
// Every mutating call (create, write, sync, truncate, remove, rename,
// mkdir, directory sync) is one numbered op.  At op faultAt the call
// fails as a disk can fail it: a write with ENOSPC after a partial
// write, with EIO, or short; anything else with EIO.  From op crashAt
// on the program is dead: every call fails and changes nothing, until
// crash reboots the file system.
type memFS struct {
	rng     *rand.Rand
	dirs    map[string]bool
	files   map[string]*inode // the namespace the program sees
	durable map[string]*inode // the namespace as the last directory fsyncs left it
	pending []nsOp            // namespace changes not yet durable, in order
	ops     int               // mutating ops so far
	faultAt int               // op that fails; -1 for none
	crashAt int               // op at which the program dies; -1 for never
	stuck   string            // a path whose every mutating op fails
	fired   bool              // the fault at faultAt happened
	dead    bool
	log     []string // the ops, for failure messages
}

// inode is one file's contents.
type inode struct {
	data   []byte // what a read sees
	synced []byte // what the last fsync made durable
	low    int    // the shortest data has been since that fsync
}

// nsOp is one creation, rename or removal.
type nsOp struct {
	kind     string // "create", "rename" or "remove"
	name, to string
	ino      *inode
}

var errCrashed = errors.New("memfs: the program has crashed")

func newMemFS(rng *rand.Rand) *memFS {
	return &memFS{
		rng:     rng,
		dirs:    map[string]bool{"/": true},
		files:   map[string]*inode{},
		durable: map[string]*inode{},
		faultAt: -1,
		crashAt: -1,
	}
}

// step numbers one mutating op on name and reports how it fails:
// errCrashed from the crash point on, syscall.EIO at the fault or on
// the stuck path.
func (m *memFS) step(op, name string) error {
	n := m.ops
	m.ops++
	if m.dead || (m.crashAt >= 0 && n >= m.crashAt) {
		m.dead = true
		return errCrashed
	}
	if n == m.faultAt || name == m.stuck {
		m.fired = m.fired || n == m.faultAt
		m.log = append(m.log, fmt.Sprintf("%d %s %s: FAULT", n, op, name))
		return syscall.EIO
	}
	m.log = append(m.log, fmt.Sprintf("%d %s %s", n, op, name))
	return nil
}

// tail returns the last n ops of the log, for a failure message.
func (m *memFS) tail(n int) string {
	return strings.Join(m.log[max(len(m.log)-n, 0):], "\n")
}

func pathErr(op, name string, err error) error { return &iofs.PathError{Op: op, Path: name, Err: err} }

func (m *memFS) create(name string, excl bool) (file, error) {
	if err := m.step("create", name); err != nil {
		return nil, pathErr("create", name, err)
	}
	if !m.dirs[filepath.Dir(name)] {
		return nil, pathErr("create", name, iofs.ErrNotExist)
	}
	ino := m.files[name]
	switch {
	case ino != nil && excl:
		return nil, pathErr("create", name, iofs.ErrExist)
	case ino != nil:
		ino.truncate(0)
	default:
		ino = &inode{}
		m.files[name] = ino
		m.pending = append(m.pending, nsOp{kind: "create", name: name, ino: ino})
	}
	return &memFile{fs: m, ino: ino, name: name, write: true}, nil
}

func (m *memFS) open(name string, write bool) (file, error) {
	if m.dead {
		return nil, pathErr("open", name, errCrashed)
	}
	ino := m.files[name]
	if ino == nil {
		return nil, pathErr("open", name, iofs.ErrNotExist)
	}
	return &memFile{fs: m, ino: ino, name: name, write: write}, nil
}

func (m *memFS) readDir(dir string) ([]string, error) {
	if m.dead {
		return nil, pathErr("readdir", dir, errCrashed)
	}
	if !m.dirs[dir] {
		return nil, pathErr("readdir", dir, iofs.ErrNotExist)
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	slices.Sort(names)
	return names, nil
}

func (m *memFS) remove(name string) error {
	if err := m.step("remove", name); err != nil {
		return pathErr("remove", name, err)
	}
	ino := m.files[name]
	if ino == nil {
		return pathErr("remove", name, iofs.ErrNotExist)
	}
	delete(m.files, name)
	m.pending = append(m.pending, nsOp{kind: "remove", name: name, ino: ino})
	return nil
}

func (m *memFS) rename(from, to string) error {
	if err := m.step("rename", from+" -> "+to); err != nil {
		return pathErr("rename", from, err)
	}
	ino := m.files[from]
	if ino == nil {
		return pathErr("rename", from, iofs.ErrNotExist)
	}
	delete(m.files, from)
	m.files[to] = ino
	m.pending = append(m.pending, nsOp{kind: "rename", name: from, to: to, ino: ino})
	return nil
}

// mkdirAll creates dir at once durably: the store never makes a
// directory durable itself, and the model leaves directories out.
func (m *memFS) mkdirAll(dir string) error {
	if m.dirs[dir] {
		return nil
	}
	if err := m.step("mkdir", dir); err != nil {
		return pathErr("mkdir", dir, err)
	}
	for d := dir; !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *memFS) syncDir(dir string) error {
	if err := m.step("syncdir", dir); err != nil {
		return pathErr("sync", dir, err)
	}
	keep := m.pending[:0]
	for _, op := range m.pending {
		if filepath.Dir(op.name) == dir {
			m.apply(op)
		} else {
			keep = append(keep, op)
		}
	}
	m.pending = keep
	return nil
}

// apply makes op durable.  A rename carries its inode even where the
// creation of its source did not survive.
func (m *memFS) apply(op nsOp) {
	switch op.kind {
	case "create":
		m.durable[op.name] = op.ino
	case "remove":
		delete(m.durable, op.name)
	case "rename":
		if m.durable[op.name] == op.ino {
			delete(m.durable, op.name)
		}
		m.durable[op.to] = op.ino
	}
}

// crash reboots the file system as a power loss now could leave it,
// with the fault and the crash point cleared.
func (m *memFS) crash() {
	for _, op := range m.pending {
		if m.rng.Intn(2) == 0 {
			m.apply(op)
		}
	}
	names := make([]string, 0, len(m.durable))
	for name := range m.durable {
		names = append(names, name)
	}
	slices.Sort(names)
	after := map[*inode]*inode{}
	files := map[string]*inode{}
	for _, name := range names {
		ino := m.durable[name]
		if after[ino] == nil {
			data := ino.survivor(m.rng)
			after[ino] = &inode{data: data, synced: data, low: len(data)}
		}
		files[name] = after[ino]
	}
	m.files = files
	m.durable = maps.Clone(files)
	m.pending = nil
	m.faultAt, m.crashAt, m.dead = -1, -1, false
	m.log = append(m.log, "CRASH")
}

// survivor is what a power loss leaves of the file: its synced bytes,
// with a pending truncation undone or not, and then no more than a
// torn part of the unsynced tail.
func (ino *inode) survivor(rng *rand.Rand) []byte {
	if ino.low < len(ino.synced) && rng.Intn(2) == 0 {
		return slices.Clone(ino.synced)
	}
	keep := ino.low
	if tail := len(ino.data) - ino.low; tail > 0 && rng.Intn(2) == 0 {
		keep += rng.Intn(tail)
	}
	return slices.Clone(ino.data[:keep])
}

func (ino *inode) truncate(size int) {
	if size < len(ino.data) {
		ino.data = ino.data[:size]
	} else {
		ino.data = append(ino.data, make([]byte, size-len(ino.data))...)
	}
	ino.low = min(ino.low, size)
}

// contents returns what the program reads at name, or nil.
func (m *memFS) contents(name string) []byte {
	if ino := m.files[name]; ino != nil {
		return ino.data
	}
	return nil
}

// memFile is an open memFS file.  Writes append.
type memFile struct {
	fs     *memFS
	ino    *inode
	name   string
	write  bool
	off    int64
	closed bool
}

func (f *memFile) check(op string) error {
	switch {
	case f.closed:
		return pathErr(op, f.name, iofs.ErrClosed)
	case f.fs.dead:
		return pathErr(op, f.name, errCrashed)
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	if err := f.check("read"); err != nil {
		return 0, err
	}
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.check("read"); err != nil {
		return 0, err
	}
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if err := f.check("write"); err != nil {
		return 0, err
	}
	if !f.write {
		return 0, pathErr("write", f.name, syscall.EBADF)
	}
	if err := f.fs.step(fmt.Sprintf("write +%d", len(p)), f.name); err == errCrashed {
		return 0, pathErr("write", f.name, err)
	} else if err != nil {
		// The fault: ENOSPC part way, EIO, or a short write.
		switch f.fs.rng.Intn(3) {
		case 0:
			n := f.fs.rng.Intn(len(p) + 1)
			f.ino.data = append(f.ino.data, p[:n]...)
			return n, pathErr("write", f.name, syscall.ENOSPC)
		case 1:
			return 0, pathErr("write", f.name, syscall.EIO)
		default:
			n := f.fs.rng.Intn(max(len(p), 1))
			f.ino.data = append(f.ino.data, p[:n]...)
			return n, io.ErrShortWrite
		}
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if err := f.check("sync"); err != nil {
		return err
	}
	if err := f.fs.step("sync", f.name); err != nil {
		return pathErr("sync", f.name, err)
	}
	f.ino.synced = slices.Clone(f.ino.data)
	f.ino.low = len(f.ino.data)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	if err := f.check("truncate"); err != nil {
		return err
	}
	if !f.write {
		return pathErr("truncate", f.name, syscall.EBADF)
	}
	if err := f.fs.step("truncate", f.name); err != nil {
		return pathErr("truncate", f.name, err)
	}
	f.ino.truncate(int(size))
	return nil
}

func (f *memFile) Close() error {
	if f.closed {
		return pathErr("close", f.name, iofs.ErrClosed)
	}
	f.closed = true
	return nil
}

func (f *memFile) Stat() (iofs.FileInfo, error) {
	if err := f.check("stat"); err != nil {
		return nil, err
	}
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.ino.data))}, nil
}

// memInfo is a memFile's Stat.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string        { return i.name }
func (i memInfo) Size() int64         { return i.size }
func (i memInfo) Mode() iofs.FileMode { return 0o644 }
func (i memInfo) ModTime() time.Time  { return time.Time{} }
func (i memInfo) IsDir() bool         { return false }
func (i memInfo) Sys() any            { return nil }
