package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type unit struct {
	Misses int   `json:"misses"`
	Seeds  []int `json:"seeds,omitempty"`
}

func TestRecordLookupRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, err := Open(path, "fp-1", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Record("a|trials[0,10)", unit{Misses: 7, Seeds: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	var got unit
	ok, err := f.Lookup("a|trials[0,10)", &got)
	if err != nil || !ok {
		t.Fatalf("Lookup = %v, %v", ok, err)
	}
	if got.Misses != 7 || len(got.Seeds) != 2 {
		t.Errorf("got %+v", got)
	}
	if ok, _ := f.Lookup("missing", &got); ok {
		t.Error("missing key reported present")
	}
}

func TestResumeLoadsUnits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, err := Open(path, "fp-1", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Record("k", unit{Misses: 3}); err != nil {
		t.Fatal(err)
	}

	g, err := Open(path, "fp-1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var got unit
	if ok, err := g.Lookup("k", &got); !ok || err != nil || got.Misses != 3 {
		t.Errorf("resumed Lookup = %v, %v, %+v", ok, err, got)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestResumeMissingFileStartsEmpty(t *testing.T) {
	f, err := Open(filepath.Join(t.TempDir(), "absent.json"), "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, _ := Open(path, "fp-old", 1, false)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "fp-new", 1, true); !errors.Is(err, ErrMismatch) {
		t.Errorf("err = %v, want ErrMismatch", err)
	}
}

func TestFreshRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, _ := Open(path, "fp", 1, false)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "fp", 1, false); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestCorruptFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "fp", 1, true); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// writeLog records the given number of units, one flush each, and returns
// the log's path, its bytes and the byte offset where each frame ends (so
// ends[0] is the end of the header line).
func writeLog(t testing.TB, units int) (string, []byte, []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	f, err := Open(path, "fp", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	ends := []int{fileSize(t, path)}
	for i := 0; i < units; i++ {
		if err := f.Record(fmt.Sprintf("unit-%d|trials[0,%d)", i, 100*i), unit{Misses: 9 + i, Seeds: []int{3, i}}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fileSize(t, path))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw, ends
}

func fileSize(t testing.TB, path string) int {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(info.Size())
}

// writeValid flushes a small valid checkpoint and returns its path and raw
// bytes, for the corruption tests to mangle.
func writeValid(t *testing.T) (string, []byte) {
	path, raw, _ := writeLog(t, 1)
	return path, raw
}

// TestTruncatedFileRejected cuts the log inside its header line, or to
// nothing: that is not a torn append (the header is written by rename), so
// the resume must refuse it.
func TestTruncatedFileRejected(t *testing.T) {
	path, raw, ends := writeLog(t, 1)
	for _, cut := range []int{1, ends[0] / 2, ends[0] - 1} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, "fp", 1, true); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "fp", 1, true); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty file: err = %v, want ErrCorrupt", err)
	}
}

// TestTrailingGarbageRejected appends a complete line that is not a frame:
// only a torn last line is forgiven, so the resume must refuse it.
func TestTrailingGarbageRejected(t *testing.T) {
	path, raw := writeValid(t)
	for _, garbage := range []string{`{"version":2}` + "\n", "\n", strings.Repeat("0", sumLen) + " [\"k\",{}]\n"} {
		if err := os.WriteFile(path, append(raw[:len(raw):len(raw)], garbage...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, "fp", 1, true); !errors.Is(err, ErrCorrupt) {
			t.Errorf("trailing %q: err = %v, want ErrCorrupt", garbage, err)
		}
	}
}

func TestBitRotRejected(t *testing.T) {
	// Flip a character inside a unit payload such that the JSON stays
	// perfectly parseable: only the checksum can catch this.
	path, raw := writeValid(t)
	idx := bytes.Index(raw, []byte(`"misses":9`))
	if idx < 0 {
		t.Fatal("payload digit not found")
	}
	rotted := bytes.Clone(raw)
	rotted[idx+len(`"misses":`)] = '8'
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "fp", 1, true); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit rot: err = %v, want ErrCorrupt", err)
	}
}

func TestChecksumSurvivesRoundTrips(t *testing.T) {
	// Resume, record another unit, flush, resume again: appending to a
	// resumed log must keep every frame valid.
	path, _ := writeValid(t)
	f, err := Open(path, "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Record("unit-b", unit{Misses: 1}); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path, "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

// TestFlushInterval checks that the log grows only every `every` Records,
// reading what is on disk through a second Open.
func TestFlushInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, err := Open(path, "fp", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	f.Record("a", unit{})
	f.Record("b", unit{})
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("flushed before interval elapsed: %v", err)
	}
	f.Record("c", unit{})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no flush after interval: %v", err)
	}
	onDisk := func() int {
		t.Helper()
		g, err := Open(path, "fp", 1, true)
		if err != nil {
			t.Fatal(err)
		}
		return g.Len()
	}
	// The pending counter resets: the fourth and fifth records stay
	// buffered, the sixth appends all three.
	f.Record("d", unit{})
	f.Record("e", unit{})
	if n := onDisk(); n != 3 {
		t.Errorf("on-disk units = %d, want 3", n)
	}
	f.Record("f", unit{})
	if n := onDisk(); n != 6 {
		t.Errorf("on-disk units = %d, want 6", n)
	}
}

// TestFlushIsAtomicFormat pins the v3 layout: a canonical header line
// written by rename (no temp file left behind), then one checksummed frame
// per unit.
func TestFlushIsAtomicFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, _ := Open(path, "fp-x", 1, false)
	f.Record("k", unit{Misses: 1})
	f.Record("k2", unit{Misses: 2})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("log has %d lines, want header + 2 frames:\n%s", len(lines), raw)
	}
	var h header
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.Fingerprint != "fp-x" {
		t.Errorf("header = %+v", h)
	}
	for i, want := range []string{`["k",{"misses":1}]`, `["k2",{"misses":2}]`} {
		key, u, err := decodeFrame([]byte(lines[i+1]))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := lines[i+1][sumLen+1:]; got != want {
			t.Errorf("frame %d payload = %s, want %s", i, got, want)
		}
		if key != []string{"k", "k2"}[i] || !json.Valid(u) {
			t.Errorf("frame %d = %q, %s", i, key, u)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind")
	}
}

// TestCutAtEveryOffset is the torn-write property of the log: a log cut at
// any byte offset either refuses (the cut is inside the header) or resumes
// exactly the units whose frames survived whole, byte-identical, and a
// Record after the reopen yields a valid log again.
func TestCutAtEveryOffset(t *testing.T) {
	const units = 4
	path, raw, ends := writeLog(t, units)
	full, err := Open(path, "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path, "fp", 1, true)
		if cut < ends[0] {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut at %d (in header): err = %v, want ErrCorrupt", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		whole := 0
		for whole < units && ends[whole+1] <= cut {
			whole++
		}
		if f.Len() != whole {
			t.Fatalf("cut at %d: resumed %d units, want %d", cut, f.Len(), whole)
		}
		for k, u := range f.units {
			if !bytes.Equal(u, full.units[k]) {
				t.Fatalf("cut at %d: unit %q = %s, want %s", cut, k, u, full.units[k])
			}
		}
		if size := fileSize(t, path); size != ends[whole] {
			t.Fatalf("cut at %d: torn tail left the log at %d bytes, want %d", cut, size, ends[whole])
		}
		if err := f.Record("after-cut", unit{Misses: 1}); err != nil {
			t.Fatalf("cut at %d: Record after reopen: %v", cut, err)
		}
		g, err := Open(path, "fp", 1, true)
		if err != nil {
			t.Fatalf("cut at %d: reopen after Record: %v", cut, err)
		}
		if g.Len() != whole+1 {
			t.Fatalf("cut at %d: log after Record holds %d units, want %d", cut, g.Len(), whole+1)
		}
	}
}

// TestBitFlipInFrameRejected flips every bit of every complete frame but
// the last newline (whose loss makes the last frame a torn tail instead):
// each flip must refuse the resume.
func TestBitFlipInFrameRejected(t *testing.T) {
	path, raw, ends := writeLog(t, 3)
	for i := ends[0]; i < len(raw)-1; i++ {
		for bit := 0; bit < 8; bit++ {
			rotted := bytes.Clone(raw)
			rotted[i] ^= 1 << bit
			if err := os.WriteFile(path, rotted, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path, "fp", 1, true); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip of bit %d at byte %d (%q): err = %v, want ErrCorrupt", bit, i, raw[i], err)
			}
		}
	}
}

// TestBitFlipInHeaderRefused flips every bit of the header line: each flip
// must refuse the resume, as ErrCorrupt, ErrMismatch (a changed
// fingerprint) or a version error.
func TestBitFlipInHeaderRefused(t *testing.T) {
	path, raw, ends := writeLog(t, 1)
	for i := 0; i < ends[0]; i++ {
		for bit := 0; bit < 8; bit++ {
			rotted := bytes.Clone(raw)
			rotted[i] ^= 1 << bit
			if err := os.WriteFile(path, rotted, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path, "fp", 1, true); err == nil {
				t.Fatalf("flip of bit %d at header byte %d (%q) resumed", bit, i, raw[i])
			}
		}
	}
}

func TestDuplicateKeyLastFrameWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, _ := Open(path, "fp", 1, false)
	f.Record("k", unit{Misses: 1})
	f.Record("k", unit{Misses: 2})
	g, err := Open(path, "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var got unit
	if ok, err := g.Lookup("k", &got); !ok || err != nil || got.Misses != 2 || g.Len() != 1 {
		t.Errorf("Lookup = %v, %v, %+v (Len %d), want the last frame", ok, err, got, g.Len())
	}
}

// writeLegacy writes a format-v2 checkpoint as the v2 writer did: indented
// JSON carrying a whole-content checksum.
func writeLegacy(t testing.TB, path, fp string, units map[string]unit) {
	t.Helper()
	st := legacyState{Version: legacyVersion, Fingerprint: fp, Units: map[string]json.RawMessage{}}
	for k, u := range units {
		raw, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		st.Units[k] = raw
	}
	sum, err := digest(&st)
	if err != nil {
		t.Fatal(err)
	}
	st.Checksum = sum
	raw, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyV2ResumesAndIsRewritten resumes a v2 file, then checks that its
// first flush rewrites it as a v3 log holding the old and the new units.
func TestLegacyV2ResumesAndIsRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	writeLegacy(t, path, "fp", map[string]unit{"a": {Misses: 4, Seeds: []int{1}}, "b": {Misses: 5}})
	f, err := Open(path, "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var got unit
	if ok, err := f.Lookup("a", &got); !ok || err != nil || got.Misses != 4 || f.Len() != 2 {
		t.Fatalf("v2 resume: Lookup = %v, %v, %+v (Len %d)", ok, err, got, f.Len())
	}
	if err := f.Record("c", unit{Misses: 6}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(string(raw), "\n"); first != `{"version":3,"fingerprint":"fp"}` {
		t.Errorf("first line after rewrite = %s, want a v3 header", first)
	}
	g, err := Open(path, "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Errorf("rewritten log holds %d units, want 3", g.Len())
	}
	if _, err := Open(path, "other", 1, true); !errors.Is(err, ErrMismatch) {
		t.Errorf("rewritten log with another fingerprint: err = %v, want ErrMismatch", err)
	}
}

func TestLegacyV2ChecksumStillGuards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	writeLegacy(t, path, "fp", map[string]unit{"a": {Misses: 4}})
	raw, _ := os.ReadFile(path)
	rotted := bytes.Replace(raw, []byte(`"misses": 4`), []byte(`"misses": 5`), 1)
	if bytes.Equal(rotted, raw) {
		t.Fatal("payload not found")
	}
	os.WriteFile(path, rotted, 0o644)
	if _, err := Open(path, "fp", 1, true); !errors.Is(err, ErrCorrupt) {
		t.Errorf("rotted v2 file: err = %v, want ErrCorrupt", err)
	}
}

func TestNilFileNoOps(t *testing.T) {
	var f *File
	if err := f.Record("k", unit{}); err != nil {
		t.Errorf("Record = %v", err)
	}
	if ok, err := f.Lookup("k", &unit{}); ok || err != nil {
		t.Errorf("Lookup = %v, %v", ok, err)
	}
	if err := f.Flush(); err != nil {
		t.Errorf("Flush = %v", err)
	}
	if f.Len() != 0 || f.Path() != "" {
		t.Error("nil accessors")
	}
}

func TestConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	f, _ := Open(path, "fp", 4, false)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				f.Record(string(rune('a'+i))+"-key", unit{Misses: j})
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path, "fp", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 8 {
		t.Errorf("Len = %d, want 8", g.Len())
	}
	for i := 0; i < 8; i++ {
		var got unit
		if ok, _ := g.Lookup(string(rune('a'+i))+"-key", &got); !ok || got.Misses != 49 {
			t.Errorf("key %d resumed %+v, want the last record", i, got)
		}
	}
}

// FuzzCheckpointOpen feeds arbitrary bytes to a resume: Open must never
// panic, a file it accepts must hold only frames that pass their checksum
// (or be a checksum-valid v2 file), and it must stay resumable after a
// Record.
func FuzzCheckpointOpen(f *testing.F) {
	_, raw, _ := writeLog(f, 3)
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	legacy := filepath.Join(f.TempDir(), "v2.json")
	writeLegacy(f, legacy, "fp", map[string]unit{"a": {Misses: 1}})
	v2, _ := os.ReadFile(legacy)
	f.Add(v2)
	f.Add([]byte(`{"version":3,"fingerprint":"fp"}` + "\n"))
	f.Add([]byte("{\n"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := Open(path, "fp", 1, true)
		if err != nil {
			return
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("{\n")) {
			lines := bytes.Split(after, []byte("\n"))
			if len(lines) < 2 || len(lines[len(lines)-1]) != 0 {
				t.Fatalf("accepted log does not end on a line boundary: %q", after)
			}
			last := map[string]json.RawMessage{}
			for _, line := range lines[1 : len(lines)-1] {
				key, u, err := decodeFrame(line)
				if err != nil {
					t.Fatalf("accepted a frame failing its check: %q: %v", line, err)
				}
				last[key] = u
			}
			if len(last) != ck.Len() {
				t.Fatalf("resumed %d units from %d distinct frames", ck.Len(), len(last))
			}
			for k, u := range last {
				if !bytes.Equal(ck.units[k], u) {
					t.Fatalf("unit %q = %s, last frame holds %s", k, ck.units[k], u)
				}
			}
		}
		want := ck.Len() + 1
		if _, had := ck.units["fuzz-new"]; had {
			want--
		}
		if err := ck.Record("fuzz-new", unit{Misses: 1}); err != nil {
			t.Fatal(err)
		}
		re, err := Open(path, "fp", 1, true)
		if err != nil {
			t.Fatalf("log not resumable after Record: %v", err)
		}
		if re.Len() != want {
			t.Fatalf("reopened %d units, want %d", re.Len(), want)
		}
	})
}

// BenchmarkRecord is the per-unit cost of a served job's checkpoint: one
// Record with a flush per unit, over a log restarted every 144 units (the
// unit count of a three-design campaign job).
func BenchmarkRecord(b *testing.B) {
	const jobUnits = 144
	dir := b.TempDir()
	type counts struct {
		Misses    int `json:"misses"`
		Survivors int `json:"survivors"`
	}
	var f *File
	for i := 0; i < b.N; i++ {
		if i%jobUnits == 0 {
			path := filepath.Join(dir, "ck.json")
			os.Remove(path)
			var err error
			if f, err = Open(path, "fp", 1, false); err != nil {
				b.Fatal(err)
			}
		}
		key := fmt.Sprintf("{Design:sa Vuln:%d Mapped:true}|trials[0,3000)", i%jobUnits)
		if err := f.Record(key, counts{Misses: i, Survivors: 3000}); err != nil {
			b.Fatal(err)
		}
	}
}
