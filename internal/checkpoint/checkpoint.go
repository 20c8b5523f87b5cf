// Package checkpoint persists partial campaign results so a multi-hour
// sweep interrupted by a signal, a killed process or a cancelled context can
// resume where it stopped instead of losing all completed work.
//
// A checkpoint is an append-only log of lines (format v3). The first line is
// the header: the format version and a fingerprint — a string identifying
// the exact campaign configuration, so results are never resumed into a
// differently-parameterised run. Every further line is one frame holding a
// completed work unit:
//
//	<sum> ["<key>",<unit JSON>]
//
// where sum is the 16-hex-digit FNV-64a digest (internal/fingerprint) of
// the JSON array after the space. Unit keys are chosen by the caller; the
// campaign runners key units by the program-cache identity of the benchmark
// plus the trial range it covers, which makes a unit valid exactly as long
// as its results are bit-identical reproducible. If a key appears twice,
// its last frame wins.
//
// What each write survives: the header is written once, on the first
// flush, to a temporary file renamed over the destination, and a flush
// appends the frames recorded since the previous one in a single write. A
// process killed at any point (SIGKILL included) therefore leaves a
// complete header followed by whole frames and at most one torn frame at
// the end, because the kernel's page cache outlives the process. Open
// truncates a torn last line away, and that unit is recomputed. Nothing
// calls fsync, so an operating-system crash or power loss can lose or tear
// writes the page cache had not yet written back; such damage to a complete
// line is refused as ErrCorrupt rather than resumed.
//
// Flushing happens every Record calls according to the configured
// interval, plus whenever Flush is called (the runners flush once more on
// the way out, including on cancellation). A format-v2 file (one indented
// JSON document with a whole-content checksum) still resumes, and its first
// flush rewrites it as a v3 log.
//
// All methods are safe for concurrent use and are no-ops on a nil *File, so
// runners thread an optional checkpoint through without branching.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"securetlb/internal/fingerprint"
)

// The package's sentinel errors.
var (
	// ErrMismatch is returned by Open when resuming from a file whose
	// fingerprint does not match the requested campaign — the guard against
	// silently merging results from two different configurations.
	ErrMismatch = errors.New("checkpoint: fingerprint mismatch")
	// ErrExists is returned by Open when asked to start a fresh checkpoint
	// at a path that already holds one, to protect completed work from an
	// accidental overwrite (resume or delete the file explicitly).
	ErrExists = errors.New("checkpoint: file exists")
	// ErrCorrupt is returned by Open when the file at path is not a valid
	// checkpoint: a damaged or missing header, or a complete line that does
	// not parse or fails its checksum. Resuming from such a file would risk
	// silently wrong tables, so the load fails loudly instead. (An
	// unterminated last line is not corruption but a torn append; Open
	// drops it.)
	ErrCorrupt = errors.New("checkpoint: corrupt file")
)

// Version is the checkpoint file format version written: 3, the
// append-only log. Open also reads version 2.
const Version = 3

// legacyVersion is the whole-file format Open still resumes.
const legacyVersion = 2

// header is the first line of a v3 log.
type header struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// sumLen is the width of a frame's checksum field.
const sumLen = 16

// File is an open checkpoint. The zero value is not usable; a nil *File is:
// every method no-ops, which is how runners represent "checkpointing off".
type File struct {
	mu          sync.Mutex
	path        string
	fingerprint string
	every       int
	units       map[string]json.RawMessage
	// pending holds the frames recorded since the last flush, encoded.
	pending []byte
	// nPending counts the Records since the last flush (the interval).
	nPending int
	// logged reports that path holds a v3 log of this checkpoint (its header
	// written), so a flush appends; size is that log's length in bytes.
	logged bool
	size   int64
}

// Open opens the checkpoint at path for a campaign identified by
// fingerprint, flushing automatically every `every` recorded units (values
// < 1 mean every unit).
//
// With resume true an existing file is loaded — its fingerprint must match
// or Open fails with ErrMismatch — and a missing file starts empty (an
// interrupted run may have died before its first flush). A torn last line
// is truncated from the file. With resume false the checkpoint starts
// empty, and an existing file at path is refused with ErrExists rather than
// clobbered.
func Open(path, fingerprint string, every int, resume bool) (*File, error) {
	if every < 1 {
		every = 1
	}
	f := &File{path: path, fingerprint: fingerprint, every: every, units: map[string]json.RawMessage{}}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return f, nil
	case err != nil:
		return nil, fmt.Errorf("checkpoint: %w", err)
	case !resume:
		return nil, fmt.Errorf("%w: %s holds a previous checkpoint (resume it or delete the file)", ErrExists, path)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: %s has no complete header line", ErrCorrupt, path)
	}
	if string(raw[:nl]) == "{" {
		// Format v2 was written by an indenting marshaller, so its first
		// line is a lone brace; a v3 header never is.
		err = f.loadLegacy(raw)
	} else {
		err = f.loadLog(raw, nl)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// loadLog loads a v3 log whose header line ends at raw[nl], truncating a
// torn last line from the file.
func (f *File) loadLog(raw []byte, nl int) error {
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return fmt.Errorf("%w: %s header: %v", ErrCorrupt, f.path, err)
	}
	if h.Version != Version {
		return fmt.Errorf("checkpoint: %s has format version %d, want %d", f.path, h.Version, Version)
	}
	if h.Fingerprint != f.fingerprint {
		return fmt.Errorf("%w: file %q vs campaign %q", ErrMismatch, h.Fingerprint, f.fingerprint)
	}
	// Any other damage the parse tolerated (a flipped letter case in a field
	// name, say) still shows as a header that is not byte-canonical.
	if !bytes.Equal(raw[:nl+1], encodeHeader(h)) {
		return fmt.Errorf("%w: %s header is not canonical", ErrCorrupt, f.path)
	}
	end := bytes.LastIndexByte(raw, '\n') + 1
	for off := nl + 1; off < end; {
		n := bytes.IndexByte(raw[off:], '\n')
		key, unit, err := decodeFrame(raw[off : off+n])
		if err != nil {
			return fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, f.path, off, err)
		}
		f.units[key] = unit
		off += n + 1
	}
	if end < len(raw) {
		// A torn append: the process died mid-write. Cut it so the next
		// append starts on a line boundary; the unit is simply recomputed.
		if err := os.Truncate(f.path, int64(end)); err != nil {
			return fmt.Errorf("checkpoint: dropping torn tail of %s: %w", f.path, err)
		}
	}
	f.logged, f.size = true, int64(end)
	return nil
}

// legacyState is the on-disk shape of a format-v2 checkpoint.
type legacyState struct {
	Version     int                        `json:"version"`
	Fingerprint string                     `json:"fingerprint"`
	Checksum    string                     `json:"checksum"`
	Units       map[string]json.RawMessage `json:"units"`
}

// loadLegacy loads a format-v2 file. It is rewritten as a v3 log on the
// first flush.
func (f *File) loadLegacy(raw []byte) error {
	// json.Unmarshal rejects both truncated documents and trailing garbage
	// after the top-level value, so any torn or appended-to file lands here.
	var st legacyState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("%w: parsing %s: %v", ErrCorrupt, f.path, err)
	}
	if st.Version != legacyVersion {
		return fmt.Errorf("checkpoint: %s has format version %d, want %d", f.path, st.Version, legacyVersion)
	}
	sum, err := digest(&st)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, f.path, err)
	}
	if st.Checksum != sum {
		return fmt.Errorf("%w: %s checksum %s does not match content digest %s", ErrCorrupt, f.path, st.Checksum, sum)
	}
	if st.Fingerprint != f.fingerprint {
		return fmt.Errorf("%w: file %q vs campaign %q", ErrMismatch, st.Fingerprint, f.fingerprint)
	}
	for k, v := range st.Units {
		var buf bytes.Buffer
		if err := json.Compact(&buf, v); err != nil {
			return fmt.Errorf("%w: %s unit %q: %v", ErrCorrupt, f.path, k, err)
		}
		f.units[k] = buf.Bytes()
	}
	return nil
}

// digest computes the format-v2 content checksum of a state, excluding the
// Checksum field itself: FNV-64a over version, fingerprint and the sorted
// key/compacted-unit pairs.
func digest(st *legacyState) (string, error) {
	d := fingerprint.New().Fieldf("v%d", st.Version).Field(st.Fingerprint)
	keys := make([]string, 0, len(st.Units))
	for k := range st.Units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		buf.Reset()
		if err := json.Compact(&buf, st.Units[k]); err != nil {
			return "", fmt.Errorf("unit %q: %w", k, err)
		}
		d.Field(k).Field(buf.String())
	}
	return d.Sum(), nil
}

// encodeHeader renders the header line, newline included.
func encodeHeader(h header) []byte {
	raw, _ := json.Marshal(h) // two plain fields: cannot fail
	return append(raw, '\n')
}

// appendFrame appends the frame line of one unit to dst. unit must be
// compact JSON.
func appendFrame(dst []byte, key string, unit json.RawMessage) ([]byte, error) {
	keyJSON, err := json.Marshal(key)
	if err != nil {
		return dst, err
	}
	payload := make([]byte, 0, len(keyJSON)+len(unit)+3)
	payload = append(append(append(append(payload, '['), keyJSON...), ','), unit...)
	payload = append(payload, ']')
	dst = append(dst, fingerprint.New().Field(string(payload)).Sum()...)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n'), nil
}

// decodeFrame parses one frame line (without its newline) and verifies its
// checksum, which covers every byte after the separator.
func decodeFrame(line []byte) (string, json.RawMessage, error) {
	if len(line) <= sumLen+1 || line[sumLen] != ' ' {
		return "", nil, errors.New("malformed frame")
	}
	payload := line[sumLen+1:]
	if got := fingerprint.New().Field(string(payload)).Sum(); got != string(line[:sumLen]) {
		return "", nil, fmt.Errorf("frame checksum %q does not match content digest %s", line[:sumLen], got)
	}
	var fields []json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		return "", nil, err
	}
	if len(fields) != 2 {
		return "", nil, fmt.Errorf("frame has %d fields, want 2", len(fields))
	}
	var key string
	if err := json.Unmarshal(fields[0], &key); err != nil {
		return "", nil, err
	}
	return key, fields[1], nil
}

// Len returns the number of recorded units.
func (f *File) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.units)
}

// Path returns the checkpoint's file path ("" for a nil File).
func (f *File) Path() string {
	if f == nil {
		return ""
	}
	return f.path
}

// Lookup unmarshals the unit recorded under key into out and reports
// whether it was present. A nil File holds nothing.
func (f *File) Lookup(key string, out any) (bool, error) {
	if f == nil {
		return false, nil
	}
	f.mu.Lock()
	raw, ok := f.units[key]
	f.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("checkpoint: unit %q: %w", key, err)
	}
	return true, nil
}

// Record stores v under key and flushes if the configured interval has
// elapsed. Recording is a no-op on a nil File.
func (f *File) Record(key string, v any) error {
	if f == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: unit %q: %w", key, err)
	}
	frame, err := appendFrame(nil, key, raw)
	if err != nil {
		return fmt.Errorf("checkpoint: unit %q: %w", key, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.units[key] = raw
	f.pending = append(f.pending, frame...)
	f.nPending++
	if f.nPending >= f.every {
		return f.flushLocked()
	}
	return nil
}

// Flush makes every recorded unit durable against a process kill (see the
// package doc). Safe to call at any time, including on a nil File and with
// nothing pending.
func (f *File) Flush() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushLocked()
}

func (f *File) flushLocked() error {
	var err error
	if f.logged {
		err = f.appendLocked()
	} else {
		err = f.createLocked()
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	f.pending, f.nPending = f.pending[:0], 0
	return nil
}

// createLocked writes the whole log — header and a frame per unit — to a
// temporary file and renames it over path: the first flush of a fresh
// checkpoint, or the rewrite of a resumed v2 file.
func (f *File) createLocked() error {
	buf := encodeHeader(header{Version: Version, Fingerprint: f.fingerprint})
	keys := make([]string, 0, len(f.units))
	for k := range f.units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var err error
		if buf, err = appendFrame(buf, k, f.units[k]); err != nil {
			return err
		}
	}
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return err
	}
	f.logged, f.size = true, int64(len(buf))
	return nil
}

// appendLocked appends the pending frames in one write. A failed write is
// cut back off so the log never holds a partial frame before a later one.
func (f *File) appendLocked() error {
	if len(f.pending) == 0 {
		return nil
	}
	w, err := os.OpenFile(f.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := w.Write(f.pending); err != nil {
		w.Truncate(f.size)
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	f.size += int64(len(f.pending))
	return nil
}
