package journal

import "os"

// fileSystem is every file-system operation the journal performs: open,
// read, read-dir, make-dir, rename, remove and dir-sync here, and write-at,
// sync, truncate and close on the files it opens. Open runs a journal on
// osFS; tests run one on a file system that fails an operation on demand,
// so the failure paths are the journal's own code, not a stand-in.
type fileSystem interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making the entries created, renamed or
	// removed in it durable.
	SyncDir(path string) error
}

// file is an open journal file; *os.File implements it.
type file interface {
	WriteAt(b []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil file
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (osFS) SyncDir(path string) error {
	dir, err := os.Open(path)
	if err != nil {
		return err
	}
	err = dir.Sync()
	dir.Close() // opened only to sync; Sync's error is the one that counts
	return err
}
