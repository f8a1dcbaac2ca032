package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.csv")
	want := []byte("day,value\n0,1\n")
	if err := WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if IsTemp(e.Name()) {
			t.Errorf("temp debris left behind: %s", e.Name())
		}
	}
}

func TestWriteFileReplacesExistingAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new" {
		t.Fatalf("content = %q", got)
	}
}

// TestWriteFileSyncsParentDir asserts the rename is made durable: the
// parent directory handle must be opened and fsynced after the rename, not
// just the file's own data. The hook records the directory it is asked to
// sync and verifies the published file is already visible under its final
// name at sync time (sync-after-rename, never before).
func TestWriteFileSyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "published")

	orig := SyncDir
	defer func() { SyncDir = orig }()

	var synced []string
	SyncDir = func(d string) error {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("dir sync ran before the rename published %s: %v", path, err)
		}
		synced = append(synced, filepath.Clean(d))
		return orig(d)
	}

	if err := WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != filepath.Clean(dir) {
		t.Fatalf("synced dirs = %v, want exactly [%s]", synced, dir)
	}
}

// A failing directory sync must surface: the write is published but not yet
// crash-durable, and silent success here would undermine the durability
// model's claim that a returned nil means "survives power loss".
func TestWriteFileReportsDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")

	orig := SyncDir
	defer func() { SyncDir = orig }()
	boom := errors.New("dir sync failed")
	SyncDir = func(string) error { return boom }

	err := WriteFile(path, []byte("x"), 0o644)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped dir-sync failure", err)
	}
	if !strings.Contains(err.Error(), "sync dir") {
		t.Errorf("error %q does not name the failing step", err)
	}
	// The file itself is still in place — only durability is in doubt.
	if _, statErr := os.Stat(path); statErr != nil {
		t.Errorf("published file missing after dir-sync failure: %v", statErr)
	}
}

// WriteFile with a bare file name (no directory component) must sync ".".
func TestWriteFileBareNameSyncsDot(t *testing.T) {
	orig := SyncDir
	defer func() { SyncDir = orig }()
	var got string
	SyncDir = func(d string) error { got = d; return orig(d) }

	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	if err := WriteFile("bare", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got != "." {
		t.Fatalf("synced %q, want %q", got, ".")
	}
}

// batch spreads n files over the given directories, round-robin, each
// holding bytes that name it.
func batch(n int, dirs ...string) []File {
	files := make([]File, n)
	for i := range files {
		files[i] = File{
			Path: filepath.Join(dirs[i%len(dirs)], fmt.Sprintf("f%03d.csv", i)),
			Data: []byte(fmt.Sprintf("file %d\n", i)),
		}
	}
	return files
}

func threeDirs(t *testing.T) []string {
	t.Helper()
	root := t.TempDir()
	dirs := []string{root, filepath.Join(root, "a"), filepath.Join(root, "a", "b")}
	for _, d := range dirs[1:] {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// assertNoTemps fails on any temp debris in dirs.
func assertNoTemps(t *testing.T, dirs []string) {
	t.Helper()
	for _, d := range dirs {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if IsTemp(e.Name()) {
				t.Errorf("temp debris left behind: %s", filepath.Join(d, e.Name()))
			}
		}
	}
}

// TestWriteFilesLandsEveryFile covers the batch's basic contract: every
// file holds its bytes and the batch's mode, and nothing else is left.
// With 64 files over three directories, the pool runs files concurrently,
// so under -race it also checks the writer's own sharing.
func TestWriteFilesLandsEveryFile(t *testing.T) {
	dirs := threeDirs(t)
	files := batch(64, dirs...)
	if err := WriteFiles(files, 0o640); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got, err := os.ReadFile(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Errorf("%s: read back %q, want %q", f.Path, got, f.Data)
		}
		info, err := os.Stat(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		if mode := info.Mode().Perm(); mode != 0o640 {
			t.Errorf("%s: mode %v, want %v", f.Path, mode, os.FileMode(0o640))
		}
	}
	assertNoTemps(t, dirs)
}

// TestWriteFilesSyncsEachDirOnceAfterItsRenames holds the batch to its
// durability rule: each distinct parent directory is synced exactly once,
// and only when every batch file in it is already visible under its final
// name with its final bytes.
func TestWriteFilesSyncsEachDirOnceAfterItsRenames(t *testing.T) {
	dirs := threeDirs(t)
	files := batch(64, dirs...)

	orig := SyncDir
	defer func() { SyncDir = orig }()
	var mu sync.Mutex
	synced := map[string]int{}
	SyncDir = func(d string) error {
		for _, f := range files {
			if filepath.Dir(f.Path) != d {
				continue
			}
			if got, err := os.ReadFile(f.Path); err != nil || !bytes.Equal(got, f.Data) {
				t.Errorf("dir %s synced before %s was published (err %v)", d, f.Path, err)
			}
		}
		mu.Lock()
		synced[d]++
		mu.Unlock()
		return orig(d)
	}

	if err := WriteFiles(files, 0o644); err != nil {
		t.Fatal(err)
	}
	if len(synced) != len(dirs) {
		t.Errorf("synced %d directories, want %d: %v", len(synced), len(dirs), synced)
	}
	for _, d := range dirs {
		if synced[d] != 1 {
			t.Errorf("dir %s synced %d times, want exactly once", d, synced[d])
		}
	}
}

// A file that cannot land (its directory is missing) fails the batch with
// the lowest-index failure, leaves no temp debris, and syncs no directory.
func TestWriteFilesReturnsLowestIndexFailure(t *testing.T) {
	dirs := threeDirs(t)
	files := batch(16, dirs...)
	missing := filepath.Join(dirs[0], "missing")
	files[5].Path = filepath.Join(missing, "first-bad")
	files[11].Path = filepath.Join(missing, "second-bad")

	orig := SyncDir
	defer func() { SyncDir = orig }()
	var syncs atomic.Int32
	SyncDir = func(d string) error { syncs.Add(1); return orig(d) }

	err := WriteFiles(files, 0o644)
	if err == nil {
		t.Fatal("batch with a file in a missing directory succeeded")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("err = %v, want a not-exist error", err)
	}
	if !strings.Contains(err.Error(), "first-bad") || strings.Contains(err.Error(), "second-bad") {
		t.Errorf("err = %v, want the lowest-index failure (first-bad)", err)
	}
	if n := syncs.Load(); n != 0 {
		t.Errorf("%d directory syncs after a failed batch, want none", n)
	}
	assertNoTemps(t, dirs)
}

// A failing directory sync fails the batch, wrapped and naming the step,
// while the files themselves are in place.
func TestWriteFilesReportsDirSyncFailure(t *testing.T) {
	dirs := threeDirs(t)
	files := batch(9, dirs...)

	orig := SyncDir
	defer func() { SyncDir = orig }()
	boom := errors.New("dir sync failed")
	SyncDir = func(d string) error {
		if d == dirs[1] {
			return boom
		}
		return orig(d)
	}

	err := WriteFiles(files, 0o644)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped dir-sync failure", err)
	}
	if !strings.Contains(err.Error(), "sync dir "+dirs[1]) {
		t.Errorf("error %q does not name the failing step and directory", err)
	}
	for _, f := range files {
		if _, statErr := os.Stat(f.Path); statErr != nil {
			t.Errorf("published file missing after dir-sync failure: %v", statErr)
		}
	}
}
