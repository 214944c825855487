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
// metrics (trace ring included), the -json rows of Tables I–III, a
// default-spec 500-home fleet campaign and 200-home cdelay, offline and
// replay campaigns, each with its metrics. A change that alters any of them must regenerate the
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

// TestGoldenTablesJSON pins the machine-readable rows of Tables I–III,
// which carry the measured parameters and per-row fields the text tables
// round or omit.
func TestGoldenTablesJSON(t *testing.T) {
	for _, table := range []string{"table1", "table2", "table3"} {
		t.Run(table, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run([]string{"-seed", "1", "-json", table})
			})
			checkGolden(t, table+".json", out)
		})
	}
}

// TestGoldenFleet pins the default campaign at 500 homes and one campaign
// per other attack at 200 homes, each with its metrics.
func TestGoldenFleet(t *testing.T) {
	cases := []struct {
		name  string
		spec  string // campaign spec JSON; empty runs the default campaign
		homes string
	}{
		{name: "fleet", homes: "500"},
		// The default targets (contact and motion sensors) take no
		// commands, so the cdelay campaign targets actuators instead.
		{name: "fleet-cdelay", spec: `{"attack":"cdelay","targets":{"classes":["plug","bulb","lock","keypad"]}}`, homes: "200"},
		{name: "fleet-offline", spec: `{"attack":"offline"}`, homes: "200"},
		{name: "fleet-replay", spec: `{"attack":"replay"}`, homes: "200"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "fleet.json")
			metrics := filepath.Join(dir, "metrics.json")
			args := []string{"fleet", "-homes", c.homes, "-seed", "1", "-out", out, "-metrics", metrics}
			if c.spec != "" {
				path := filepath.Join(dir, "spec.json")
				if err := os.WriteFile(path, []byte(c.spec), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append(args, "-campaign", path)
			}
			if err := run(args); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+".json", readFile(t, out))
			checkGolden(t, c.name+".metrics.json", readFile(t, metrics))
		})
	}
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
