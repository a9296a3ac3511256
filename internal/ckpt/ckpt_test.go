package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/ftpim/ftpim/internal/obs"
)

func sampleSections() map[string][]byte {
	return map[string][]byte{
		"meta": []byte("position"),
		"net":  bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 100),
		"rng":  {1, 2, 3, 4, 5, 6, 7, 8},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSections()
	b, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("section count %d != %d", len(got), len(want))
	}
	for name, payload := range want {
		if !bytes.Equal(got[name], payload) {
			t.Fatalf("section %q corrupted in round trip", name)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(sampleSections())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(sampleSections())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical sections must encode to identical bytes")
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("empty section map must fail")
	}
	if _, err := Encode(map[string][]byte{"": {1}}); err == nil {
		t.Fatal("empty section name must fail")
	}
	long := string(bytes.Repeat([]byte{'x'}, maxNameLen+1))
	if _, err := Encode(map[string][]byte{long: {1}}); err == nil {
		t.Fatal("oversized section name must fail")
	}
}

// Every single-byte truncation and every single-bit flip of a valid
// checkpoint must be rejected — never mis-decoded, never a panic.
func TestDecodeRejectsAllTruncationsAndBitFlips(t *testing.T) {
	b, err := Encode(sampleSections())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := Decode(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes must not decode", n, len(b))
		}
	}
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 1 << bit
			got, err := Decode(mut)
			if err != nil {
				continue
			}
			// A flip inside a name length/name field can legally decode
			// if CRCs still hold — but payload bytes must be intact.
			for name, payload := range got {
				if want, ok := sampleSections()[name]; ok && !bytes.Equal(payload, want) {
					t.Fatalf("bit flip at byte %d bit %d silently altered section %q", i, bit, name)
				}
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b, err := Encode(sampleSections())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(b, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// corruptCollector records ckpt.corrupt events.
type corruptCollector struct {
	events []obs.Event
}

func (c *corruptCollector) Enabled() bool { return true }
func (c *corruptCollector) Emit(e obs.Event) {
	if e.Kind == obs.KindCkptCorrupt {
		c.events = append(c.events, e)
	}
}

func TestRunSaveLoadNewest(t *testing.T) {
	store := NewStore(t.TempDir(), 3, true, nil)
	run := store.Run("pretrain-c10")
	for i := byte(1); i <= 3; i++ {
		if _, _, err := run.Save(map[string][]byte{"meta": {i}}); err != nil {
			t.Fatal(err)
		}
	}
	sections, path, ok := run.Load()
	if !ok {
		t.Fatal("expected a loadable checkpoint")
	}
	if sections["meta"][0] != 3 {
		t.Fatalf("Load returned seq %d, want newest (3); path %s", sections["meta"][0], path)
	}
}

func TestRunRetentionPrunes(t *testing.T) {
	store := NewStore(t.TempDir(), 2, true, nil)
	run := store.Run("r")
	for i := byte(0); i < 5; i++ {
		if _, _, err := run.Save(map[string][]byte{"meta": {i}}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(run.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retention keep=2 left %d files", len(entries))
	}
}

func TestRunLoadFallsBackPastCorruption(t *testing.T) {
	sink := &corruptCollector{}
	store := NewStore(t.TempDir(), 3, true, sink)
	run := store.Run("r")
	for i := byte(1); i <= 3; i++ {
		if _, _, err := run.Save(map[string][]byte{"meta": {i}}); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate the newest, bit-flip the middle: Load must fall back to
	// the oldest survivor and report both casualties.
	seqs := run.list()
	newest := filepath.Join(run.Dir(), seqName(seqs[2]))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	middle := filepath.Join(run.Dir(), seqName(seqs[1]))
	data, err = os.ReadFile(middle)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // inside the last section's payload/CRC
	if err := os.WriteFile(middle, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sections, _, ok := run.Load()
	if !ok {
		t.Fatal("oldest checkpoint is intact; Load must find it")
	}
	if sections["meta"][0] != 1 {
		t.Fatalf("fell back to seq %d, want 1", sections["meta"][0])
	}
	if len(sink.events) != 2 {
		t.Fatalf("want 2 ckpt.corrupt events, got %d", len(sink.events))
	}
}

func TestRunNotResumableIgnoresExisting(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := NewStore(dir, 3, true, nil).Run("r").Save(map[string][]byte{"meta": {9}}); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore(dir, 3, false, nil).Run("r")
	if _, _, ok := fresh.Load(); ok {
		t.Fatal("non-resume run must not load old checkpoints")
	}
	// And its first save discards the stale sequence entirely.
	if _, _, err := fresh.Save(map[string][]byte{"meta": {1}}); err != nil {
		t.Fatal(err)
	}
	resumed := NewStore(dir, 3, true, nil).Run("r")
	sections, _, ok := resumed.Load()
	if !ok || sections["meta"][0] != 1 {
		t.Fatal("stale checkpoints from the previous attempt must be gone")
	}
}

func TestSaveContinuesSequenceOnResume(t *testing.T) {
	dir := t.TempDir()
	first := NewStore(dir, 10, true, nil).Run("r")
	for i := byte(1); i <= 2; i++ {
		if _, _, err := first.Save(map[string][]byte{"meta": {i}}); err != nil {
			t.Fatal(err)
		}
	}
	second := NewStore(dir, 10, true, nil).Run("r")
	path, _, err := second.Save(map[string][]byte{"meta": {3}})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != seqName(2) {
		t.Fatalf("resumed save wrote %s, want %s", filepath.Base(path), seqName(2))
	}
}

func TestClearKeyRemovesPhasesNotNeighbors(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(dir, 3, true, nil)
	for _, key := range []string{"admm-c10-0.1", "admm-c10-0.1.admm", "admm-c10-0.1.ft", "admm-c10-0.15"} {
		if _, _, err := store.Run(key).Save(map[string][]byte{"meta": {1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.ClearKey("admm-c10-0.1"); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]bool{
		"admm-c10-0.1":      false,
		"admm-c10-0.1.admm": false,
		"admm-c10-0.1.ft":   false,
		"admm-c10-0.15":     true,
	} {
		_, err := os.Stat(filepath.Join(dir, sanitizeKey(key)))
		if got := err == nil; got != want {
			t.Fatalf("after ClearKey, dir for %q exists=%v, want %v", key, got, want)
		}
	}
}

func TestSanitizeKey(t *testing.T) {
	for in, want := range map[string]string{
		"pretrain-c10":    "pretrain-c10",
		"prog c10/0.1":    "prog_c10_0.1",
		"":                "_",
		".":               "_",  // "." and ".." would resolve out of the
		"..":              "__", // store root when joined; neutralized
		"a\x00b":          "a_b",
		"admm-c10-0.5.ft": "admm-c10-0.5.ft",
	} {
		if got := sanitizeKey(in); got != want {
			t.Fatalf("sanitizeKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestReaderDecodesEveryField: each field reads back its little-endian
// bits, NaN payloads and signed zeros included, Remaining counts down,
// and Done accepts an exactly consumed payload.
func TestReaderDecodesEveryField(t *testing.T) {
	var b []byte
	b = append(b, 0xFE)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.LittleEndian.AppendUint64(b, 0x0123456789ABCDEF)
	b = binary.LittleEndian.AppendUint32(b, 0x7FC00001) // a float32 NaN with a payload
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(math.Copysign(0, -1))))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(math.Inf(-1)))
	b = binary.LittleEndian.AppendUint64(b, 0x7FF8000000000123) // a float64 NaN with a payload
	b = append(b, 1, 0)

	r := NewReader(b)
	if r.Remaining() != len(b) {
		t.Fatalf("Remaining=%d before any read, want %d", r.Remaining(), len(b))
	}
	if v := r.U8(); v != 0xFE {
		t.Fatalf("U8=%#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32=%#x", v)
	}
	if v := r.U64(); v != 0x0123456789ABCDEF {
		t.Fatalf("U64=%#x", v)
	}
	if v := r.F32(); math.Float32bits(v) != 0x7FC00001 {
		t.Fatalf("F32 NaN bits %#x", math.Float32bits(v))
	}
	if v := r.F32(); v != 0 || !math.Signbit(float64(v)) {
		t.Fatalf("F32=%v, want -0", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Fatalf("F64=%v, want -Inf", v)
	}
	if r.Remaining() != 10 {
		t.Fatalf("Remaining=%d with one float64 and two bools left", r.Remaining())
	}
	if v := r.F64(); math.Float64bits(v) != 0x7FF8000000000123 {
		t.Fatalf("F64 NaN bits %#x", math.Float64bits(v))
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool did not read true then false")
	}
	if err := r.Done(); err != nil || r.Remaining() != 0 {
		t.Fatalf("Done=%v, Remaining=%d on a consumed payload", err, r.Remaining())
	}
}

// TestReaderFailsOnTruncation: a read past the end returns zero, fails
// the reader, and every later read returns zero even where bytes are
// left, so Done reports the truncation once at the end.
func TestReaderFailsOnTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 {
		t.Fatalf("U32 past the end=%#x, want 0", v)
	}
	if v := r.U8(); v != 0 {
		t.Fatalf("U8 after a failed read=%d, want 0", v)
	}
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted a truncated payload")
	}
}

func TestReaderRejectsNonCanonicalBool(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() {
		t.Fatal("byte 2 read as true")
	}
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted a bool byte of 2")
	}
}

func TestReaderDoneReportsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Done(); err == nil || r.Remaining() != 2 {
		t.Fatalf("Done=%v, Remaining=%d with two bytes unread", err, r.Remaining())
	}
}

func TestExpectExactSections(t *testing.T) {
	secs := sampleSections()
	if err := Expect(secs, "meta", "net", "rng"); err != nil {
		t.Fatalf("Expect on the exact set: %v", err)
	}
	if err := Expect(secs, "meta", "net", "rng", "opt"); err == nil {
		t.Fatal("Expect accepted a missing section")
	}
	if err := Expect(secs, "meta", "net"); err == nil {
		t.Fatal("Expect accepted an extra section")
	}
}

func TestRunClearRemovesCheckpoints(t *testing.T) {
	run := NewStore(t.TempDir(), 3, true, nil).Run("r")
	if _, _, err := run.Save(map[string][]byte{"meta": {1}}); err != nil {
		t.Fatal(err)
	}
	if err := run.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(run.Dir()); !os.IsNotExist(err) {
		t.Fatalf("run directory still there after Clear: %v", err)
	}
	if _, _, ok := run.Load(); ok {
		t.Fatal("Load found a checkpoint after Clear")
	}
	if err := run.Clear(); err != nil {
		t.Fatalf("clearing a cleared run: %v", err)
	}
}
