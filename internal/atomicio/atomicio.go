// Package atomicio provides crash-safe file writes. Every durable artifact
// of the pipeline — figure CSVs, the artifact manifest, simulation
// checkpoints, crawler resume state — goes through WriteFiles (WriteFile is
// its one-file form), so a crash or kill mid-write can never leave a
// truncated file that looks finished: the data lands in a temp file in the
// target directory and only a successful rename (atomic on POSIX within one
// filesystem) publishes it under the final name.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/ethpbs/pbslab/internal/stats"
)

// TempPrefix marks in-flight temp files; verification treats leftovers as
// stale debris from a crashed writer.
const TempPrefix = ".tmp-"

// SyncDir flushes a directory's entries to stable storage. The rename that
// publishes an atomic write is itself a directory mutation: without this
// fsync a power failure can roll the directory back to the pre-rename
// state even though the file's own data was synced, silently unpublishing
// a "durable" artifact. Tests replace it to observe (and fail) the sync
// without pulling power; nothing else may set it. WriteFiles may call it
// from several goroutines at once.
var SyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// File is one member of a WriteFiles batch.
type File struct {
	Path string
	Data []byte
}

// WriteFile writes data to path atomically and durably: a one-file
// WriteFiles.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFiles([]File{{Path: path, Data: data}}, perm)
}

// WriteFiles publishes a batch of files atomically and durably. Each file
// goes through its own temp file in the target directory: write, sync,
// close, chmod to perm, rename. Up to GOMAXPROCS files are in flight at a
// time. Then every distinct parent directory is fsynced once, after the
// last rename into it, so the renames survive power loss. A nil return
// means every file is published under its final name and durable. Paths
// must be distinct and their directories must exist.
//
// If a file fails, WriteFiles returns the error of the lowest-index failing
// file and syncs no directory. No temp file is left behind. A failed file's
// path is untouched: absent, or holding its previous complete content.
// Files that did land are complete but not yet durable.
func WriteFiles(files []File, perm os.FileMode) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, len(files))
	stats.ParallelDays(len(files), workers, func(i int) {
		errs[i] = publish(files[i], perm)
	})
	var dirs []string
	seen := make(map[string]bool)
	for i, f := range files {
		if errs[i] != nil {
			return errs[i]
		}
		if dir := filepath.Dir(f.Path); !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	// The files are in place either way; a failed directory sync means
	// their publication is not yet crash-durable, which callers must hear
	// about.
	dirErrs := make([]error, len(dirs))
	stats.ParallelDays(len(dirs), workers, func(i int) {
		if err := SyncDir(dirs[i]); err != nil {
			dirErrs[i] = fmt.Errorf("atomicio: sync dir %s: %w", dirs[i], err)
		}
	})
	for _, err := range dirErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// publish lands one file under its final name: temp file in the same
// directory, write, sync, close, chmod, rename. On any failure the temp
// file is removed.
func publish(f File, perm os.FileMode) error {
	path := f.Path
	tf, err := os.CreateTemp(filepath.Dir(path), TempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("atomicio: create temp for %s: %w", path, err)
	}
	tmp := tf.Name()
	cleanup := func(err error) error {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := tf.Write(f.Data); err != nil {
		return cleanup(fmt.Errorf("atomicio: write %s: %w", path, err))
	}
	// Sync before rename: otherwise a power loss can publish an empty file
	// under the final name on some filesystems.
	if err := tf.Sync(); err != nil {
		return cleanup(fmt.Errorf("atomicio: sync %s: %w", path, err))
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err := os.Chmod(tmp, perm); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicio: chmod %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicio: rename to %s: %w", path, err)
	}
	return nil
}

// IsTemp reports whether a file name is an in-flight temp file left behind
// by a crashed WriteFiles.
func IsTemp(name string) bool {
	return len(name) >= len(TempPrefix) && name[:len(TempPrefix)] == TempPrefix
}
