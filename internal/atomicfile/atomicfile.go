// Package atomicfile replaces files crash-safely: the one write path of
// the workbench's local state file, the schema-set lockfile, and the
// WAL's snapshot and header.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what write produces. The bytes go to
// path+".tmp", which is fsynced, closed and renamed over path; an fsync
// of the directory then makes the rename durable. Until the rename,
// path keeps its previous content, so a crash or an error at any step —
// write's own included — never leaves it truncated or torn. On error,
// or when write panics, the temporary file is closed and removed; one a
// crash leaves behind is the caller's to ignore or sweep (the WAL
// removes its own on recovery).
func Write(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		if !renamed {
			f.Close()
			os.Remove(tmp)
		}
	}()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	renamed = true
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir fsyncs a directory so a rename in it is durable (best-effort;
// some platforms refuse directory fsync).
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
