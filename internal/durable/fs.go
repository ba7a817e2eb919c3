// fs.go — the store's one way to the disk: every file operation goes
// through an fs, osFS in production and in tests one that can crash.
package durable

import (
	"io"
	iofs "io/fs"
	"os"
)

// fs holds the file-system calls the store makes, and no others.
type fs interface {
	// create opens name to write, creating or truncating it; with excl
	// it fails if name exists.
	create(name string, excl bool) (file, error)
	// open opens name for reading, and with write for truncating too.
	open(name string, write bool) (file, error)
	readDir(dir string) ([]string, error) // the entries' names, sorted
	remove(name string) error
	rename(from, to string) error
	mkdirAll(dir string) error
	syncDir(dir string) error // makes creations, renames and removals in dir durable
}

// file is an open file; *os.File is one.
type file interface {
	io.ReadWriteCloser
	io.ReaderAt
	Stat() (iofs.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) create(name string, excl bool) (file, error) {
	if excl {
		return osFile(os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644))
	}
	return osFile(os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644))
}

func (osFS) open(name string, write bool) (file, error) {
	if write {
		return osFile(os.OpenFile(name, os.O_RDWR, 0))
	}
	return osFile(os.Open(name))
}

// osFile keeps a failed open's nil *os.File out of a non-nil file.
func osFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) readDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) remove(name string) error     { return os.Remove(name) }
func (osFS) rename(from, to string) error { return os.Rename(from, to) }
func (osFS) mkdirAll(dir string) error    { return os.MkdirAll(dir, 0o755) }

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
