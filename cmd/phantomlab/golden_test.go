package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files from the current code instead of
// comparing against them: go test ./cmd/phantomlab -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// The golden outputs pin the published numbers byte for byte: every table,
// finding and assessment `phantomlab all` prints at seed 1 with its merged
// metrics (trace ring included), and a default-spec 500-home fleet campaign
// with its metrics. A change that alters any of them must regenerate the
// files with -update and say why.
//
// The `all` metrics document is ~3.8 MB of JSON, almost all of it trace
// events, so it is stored gzip-compressed and compared after decompression.

func TestGoldenAll(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	text := captureStdout(t, func() error {
		return run([]string{"-seed", "1", "-metrics", metrics, "all"})
	})
	checkGolden(t, "all.txt", text)
	checkGolden(t, "all.metrics.json.gz", readFile(t, metrics))
}

func TestGoldenFleet(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fleet.json")
	metrics := filepath.Join(dir, "metrics.json")
	if err := run([]string{"fleet", "-homes", "500", "-seed", "1", "-out", out, "-metrics", metrics}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet.json", readFile(t, out))
	checkGolden(t, "fleet.metrics.json", readFile(t, metrics))
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGolden byte-compares got with testdata/golden/name, or rewrites the
// file under -update. A name ending in .gz holds the gzip of the output.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	gz := filepath.Ext(name) == ".gz"
	if *update {
		data := got
		if gz {
			var buf bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
			if _, err := zw.Write(got); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readFile(t, path)
	if gz {
		zr, err := gzip.NewReader(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if want, err = io.ReadAll(zr); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if bytes.Equal(got, want) {
		return
	}
	line, off := 1, 0
	for off < len(got) && off < len(want) && got[off] == want[off] {
		if got[off] == '\n' {
			line++
		}
		off++
	}
	t.Errorf("%s: output differs from golden at byte %d (line %d): got %q, want %q",
		path, off, line, excerpt(got, off), excerpt(want, off))
}

// excerpt returns up to 60 bytes of b starting at off.
func excerpt(b []byte, off int) []byte {
	end := off + 60
	if end > len(b) {
		end = len(b)
	}
	return b[off:end]
}
