package fs

import (
	"bytes"
	"errors"
	"math/bits"
	"runtime"
	"testing"
	"testing/quick"
)

func TestOpenCreateWriteReadClose(t *testing.T) {
	f := New()
	w, err := f.Open("/tmp/a", OWrOnly|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("Write = %d,%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := f.Open("/tmp/a", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := r.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q,%v", buf[:n], err)
	}
	if n, _ := r.Read(buf); n != 0 {
		t.Errorf("Read at EOF = %d, want 0", n)
	}
	r.Close()
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	f := New()
	if _, err := f.Open("/nope", ORdOnly); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestOTruncResets(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Write([]byte("0123456789"))
	w.Close()
	w2, _ := f.Open("/a", OWrOnly|OTrunc)
	if w2.Inode().Size() != 0 {
		t.Errorf("size after O_TRUNC = %d, want 0", w2.Inode().Size())
	}
	w2.Close()
}

func TestOExclOnExisting(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Close()
	if _, err := f.Open("/a", OWrOnly|OCreate|OExcl); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestAppendMode(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Write([]byte("abc"))
	w.Close()
	a, _ := f.Open("/a", OWrOnly|OAppend)
	a.Write([]byte("def"))
	a.Close()
	r, _ := f.Open("/a", ORdOnly)
	buf := make([]byte, 16)
	n, _ := r.Read(buf)
	if string(buf[:n]) != "abcdef" {
		t.Errorf("appended content = %q", buf[:n])
	}
}

// TestAppendAlwaysWritesAtEOF: O_APPEND moves the position to the
// current EOF before every write, so two append descriptors on one file
// interleave instead of overwriting each other.
func TestAppendAlwaysWritesAtEOF(t *testing.T) {
	f := New()
	a, _ := f.Open("/log", OWrOnly|OCreate|OAppend)
	b, _ := f.Open("/log", OWrOnly|OAppend)
	for _, w := range []struct {
		f    *File
		data string
	}{{a, "a1 "}, {b, "b1 "}, {a, "a2 "}, {b, "b2"}} {
		w.f.Write([]byte(w.data))
	}
	r, _ := f.Open("/log", ORdOnly)
	buf := make([]byte, 32)
	n, _ := r.Read(buf)
	if got, want := string(buf[:n]), "a1 b1 a2 b2"; got != want {
		t.Errorf("alternating appends = %q, want %q", got, want)
	}
}

// TestWriteLayouts checks the bytes a sequence of opens, seeks and writes
// leaves behind, including the cases where the inode's retained capacity
// still holds bytes from before a truncate: none may show through.
func TestWriteLayouts(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(f *FileSystem) error
		want string
	}{
		{"trunc then shorter write", func(f *FileSystem) error {
			w, _ := f.Open("/a", OWrOnly|OCreate)
			w.Write([]byte("0123456789"))
			w.Close()
			w, _ = f.Open("/a", OWrOnly|OTrunc)
			_, err := w.Write([]byte("ab"))
			return err
		}, "ab"},
		{"seek past EOF of fresh file", func(f *FileSystem) error {
			w, _ := f.Open("/a", OWrOnly|OCreate)
			w.Write([]byte("ab"))
			w.Seek(5)
			_, err := w.Write([]byte("Z"))
			return err
		}, "ab\x00\x00\x00Z"},
		{"seek past EOF after trunc", func(f *FileSystem) error {
			w, _ := f.Open("/a", OWrOnly|OCreate)
			w.Write([]byte("0123456789"))
			w.Close()
			w, _ = f.Open("/a", OWrOnly|OTrunc)
			w.Write([]byte("ab"))
			w.Seek(6)
			_, err := w.Write([]byte("Z"))
			return err
		}, "ab\x00\x00\x00\x00Z"},
		{"seek past EOF beyond capacity", func(f *FileSystem) error {
			w, _ := f.Open("/a", OWrOnly|OCreate)
			w.Write([]byte("ab"))
			w.Seek(40)
			_, err := w.Write([]byte("Z"))
			return err
		}, "ab" + string(make([]byte, 38)) + "Z"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New()
			if err := tc.run(f); err != nil {
				t.Fatal(err)
			}
			r, _ := f.Open("/a", ORdOnly)
			buf := make([]byte, 64)
			n, _ := r.Read(buf)
			if got := string(buf[:n]); got != tc.want {
				t.Errorf("content = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestRewriteAfterTruncAllocsNothing pins capacity reuse: O_TRUNC keeps
// the inode's buffer, so rewriting the file at the same size allocates
// nothing beyond the open file description itself.
func TestRewriteAfterTruncAllocsNothing(t *testing.T) {
	f := New()
	buf := make([]byte, 4096)
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Write(buf)
	w.Close()
	open := testing.AllocsPerRun(100, func() {
		w, _ := f.Open("/a", OWrOnly|OTrunc)
		w.Close()
	})
	rewrite := testing.AllocsPerRun(100, func() {
		w, _ := f.Open("/a", OWrOnly|OTrunc)
		w.Write(buf)
		w.Close()
	})
	if rewrite != open {
		t.Errorf("rewrite after O_TRUNC allocates %v times beyond the open", rewrite-open)
	}
}

// TestAppendGrowthAllocs pins the geometric growth policy: building a
// 64 KiB file from 16 x 4 KiB appends reallocates O(log n) times and
// allocates at most ~2 bytes per written byte.
func TestAppendGrowthAllocs(t *testing.T) {
	const chunks, size = 16, 4096
	f := New()
	buf := make([]byte, size)
	build := func() {
		w, _ := f.Open("/a", OWrOnly|OCreate)
		for i := 0; i < chunks; i++ {
			w.Write(buf)
		}
		w.Close()
		f.Unlink("/a")
	}
	// Beyond the writes' own growth, a build allocates the inode and the
	// open file description.
	if got, limit := testing.AllocsPerRun(20, build), float64(bits.Len(chunks)+2); got > limit {
		t.Errorf("64 KiB append build allocates %v times, want <= %v", got, limit)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	build()
	runtime.ReadMemStats(&ms1)
	if ratio := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (chunks * size); ratio > 2.1 {
		t.Errorf("64 KiB append build allocates %.2f B per written byte, want <= 2.1", ratio)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	if _, err := w.Read(make([]byte, 1)); !errors.Is(err, ErrWriteOnly) {
		t.Errorf("read on O_WRONLY: %v", err)
	}
	w.Close()
	r, _ := f.Open("/a", ORdOnly)
	if _, err := r.Write([]byte{1}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write on O_RDONLY: %v", err)
	}
}

func TestDoubleCloseError(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Close()
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
	if _, err := w.Write([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
}

func TestOverwriteMiddle(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", ORdWr|OCreate)
	w.Write([]byte("0123456789"))
	w.Seek(3)
	w.Write([]byte("XY"))
	w.Seek(0)
	buf := make([]byte, 10)
	n, _ := w.Read(buf)
	if string(buf[:n]) != "012XY56789" {
		t.Errorf("content = %q", buf[:n])
	}
}

func TestUnlinkKeepsOpenDescription(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", ORdWr|OCreate)
	w.Write([]byte("still here"))
	if err := f.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/a", ORdOnly); !errors.Is(err, ErrNotFound) {
		t.Error("unlinked file still openable")
	}
	w.Seek(0)
	buf := make([]byte, 10)
	if n, err := w.Read(buf); err != nil || n != 10 {
		t.Errorf("read through open description after unlink = %d,%v", n, err)
	}
}

func TestListSorted(t *testing.T) {
	f := New()
	for _, p := range []string{"/c", "/a", "/b"} {
		w, _ := f.Open(p, OWrOnly|OCreate)
		w.Close()
	}
	got := f.List()
	want := []string{"/a", "/b", "/c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
}

func TestStats(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", ORdWr|OCreate)
	w.Write(make([]byte, 100))
	w.Seek(0)
	w.Read(make([]byte, 40))
	w.Close()
	opens, writes, reads, closes, bw, br := f.Stats()
	if opens != 1 || writes != 1 || reads != 1 || closes != 1 || bw != 100 || br != 40 {
		t.Errorf("stats = %d %d %d %d %d %d", opens, writes, reads, closes, bw, br)
	}
}

// Property: any sequence of writes at sequential positions reads back
// identically.
func TestWriteReadProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fsys := New()
		w, err := fsys.Open("/p", ORdWr|OCreate)
		if err != nil {
			return false
		}
		var want bytes.Buffer
		for _, c := range chunks {
			if len(c) > 4096 {
				c = c[:4096]
			}
			w.Write(c)
			want.Write(c)
		}
		w.Seek(0)
		got := make([]byte, want.Len())
		total := 0
		for total < len(got) {
			n, err := w.Read(got[total:])
			if err != nil || n == 0 {
				break
			}
			total += n
		}
		return bytes.Equal(got[:total], want.Bytes()) && total == want.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
