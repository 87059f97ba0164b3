package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := os.WriteFile(path, []byte("old content"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new content!"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len("new content!")) {
		t.Fatalf("reported %d bytes, want %d", n, len("new content!"))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new content!" {
		t.Fatalf("read %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileFailureKeepsOld simulates dying partway through a save (a
// write error after bytes already flowed): the previous file must be
// untouched and no partial temp file may remain — the invariant that
// makes an interrupted snapshot save unloadable rather than corrupt.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("interrupted")
	_, err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "precious" {
		t.Fatalf("previous content clobbered: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("partial temp file left behind: %v", err)
	}
}

func TestWriteFileNoPriorFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.bin")
	boom := errors.New("interrupted")
	if _, err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write created the target: %v", err)
	}
	if _, err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("ok"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "ok" {
		t.Fatalf("read %q", got)
	}
}

// TestWriteFileFlushErrorKeepsOld: writes are buffered, so a small
// payload first reaches the disk in the final flush. A flush failure
// must surface like a write error — previous content intact, no temp
// file left — never as a silently short file. The temp path is a
// symlink to /dev/full, where every write fails with ENOSPC.
func TestWriteFileFlushErrorKeepsOld(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Skip("cannot create symlink:", err)
	}
	n, err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("fits in the buffer"))
		return err
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v (%d bytes), want the flush's ENOSPC", err, n)
	}
	if n != 0 {
		t.Fatalf("failed write reported %d bytes", n)
	}
	if got, _ := os.ReadFile(path); string(got) != "precious" {
		t.Fatalf("previous content clobbered: %q", got)
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestWriteFileBufferedCount: many small writes (the snapshot encoder's
// pattern) spanning several buffer flushes land in order, and the count
// is the bytes written.
func TestWriteFileBufferedCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	const words = 100_000
	n, err := WriteFile(path, func(w io.Writer) error {
		for i := 0; i < words; i++ {
			if _, err := w.Write([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*words || len(got) != 4*words {
		t.Fatalf("reported %d bytes, file holds %d, want %d", n, len(got), 4*words)
	}
	for i := 0; i < words; i++ {
		if v := int(got[4*i]) | int(got[4*i+1])<<8 | int(got[4*i+2])<<16 | int(got[4*i+3])<<24; v != i {
			t.Fatalf("word %d = %d", i, v)
		}
	}
}
