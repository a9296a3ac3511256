// Package ckpt provides crash-safe checkpoint storage for long-running
// training runs: named binary sections bundled into one file with a
// per-section CRC-32, written via temp-file+rename so a crash, OOM
// kill, or SIGKILL at any instant leaves either the previous complete
// checkpoint set or the previous set plus one new complete file — never
// a torn state a resume could silently train from.
//
// Layout on disk: a Store roots one directory; each training run gets a
// subdirectory keyed by its run key ("pretrain-c10", "prog-c10-0.1",
// ...) holding numbered checkpoint files ckpt-00000042.ftck. Save
// always writes the next sequence number and prunes all but the newest
// K files; Load walks the files newest-first, skips any that fail the
// magic, structural, or checksum validation (emitting one ckpt.corrupt
// event per skipped file), and returns the newest intact checkpoint —
// so a torn final write degrades to the previous good snapshot instead
// of aborting or corrupting the experiment.
//
// The same container also holds the model cache and device profiles
// (one section each) and FTPM exports. Sections are opaque here: their
// layouts belong to the writers, which decode them with Reader.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/ftpim/ftpim/internal/obs"
)

// FormatVersion is the checkpoint container format version. Decode
// rejects files written by a different major version.
const FormatVersion = 1

// DefaultKeep is the retention depth used when a Store is created with
// keep <= 0: the newest checkpoint plus two fallbacks.
const DefaultKeep = 3

// Decoder hardening bounds: a checkpoint is a handful of sections with
// short names, so anything outside these limits is corruption, not a
// bigger workload.
const (
	maxSections = 64
	maxNameLen  = 256
)

var magic = [4]byte{'F', 'T', 'C', 'K'}

// A Format identifies one file family built on the shared section
// container: a 4-byte magic, a format version, and a tag used as the
// error-message prefix. The checkpoint format (FTCK) and the exported
// model format (FTPM, internal/ftpm) are both instances; they share the
// wire discipline — sorted deterministic section order, per-section
// CRC-32, hardened structural bounds, payload aliasing on decode — and
// differ only in magic, version, and what the sections contain.
type Format struct {
	Magic   [4]byte
	Version uint32
	Tag     string
}

// EncodeContainer serializes sections into f's container format.
// Sections are written in sorted name order, so encoding is
// deterministic: identical content yields identical bytes.
func EncodeContainer(f Format, sections map[string][]byte) ([]byte, error) {
	if len(sections) == 0 {
		return nil, fmt.Errorf("%s: no sections to encode", f.Tag)
	}
	if len(sections) > maxSections {
		return nil, fmt.Errorf("%s: %d sections exceeds limit %d", f.Tag, len(sections), maxSections)
	}
	names := make([]string, 0, len(sections))
	size := 4 + 4 + 4
	for name, payload := range sections {
		if name == "" || len(name) > maxNameLen {
			return nil, fmt.Errorf("%s: invalid section name %q", f.Tag, name)
		}
		names = append(names, name)
		size += 4 + len(name) + 8 + len(payload) + 4
	}
	sort.Strings(names)
	buf := make([]byte, 0, size)
	buf = append(buf, f.Magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, f.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		payload := sections[name]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
		buf = append(buf, payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	}
	return buf, nil
}

// DecodeContainer parses one of f's containers, validating the magic,
// version, structure, and every section checksum. It never panics on
// arbitrary input and never allocates beyond the input's own size
// (payloads are sub-slices of b, so callers must not retain b while
// mutating sections, or vice versa — and conversely, a caller that
// wants zero-copy loading can hand in an mmap'd region and read the
// sections in place).
func DecodeContainer(f Format, b []byte) (map[string][]byte, error) {
	off := 0
	take := func(n int) ([]byte, error) {
		if n < 0 || off+n > len(b) {
			return nil, fmt.Errorf("%s: truncated at offset %d (want %d more bytes)", f.Tag, off, n)
		}
		s := b[off : off+n]
		off += n
		return s, nil
	}
	hdr, err := take(12)
	if err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != f.Magic {
		return nil, fmt.Errorf("%s: bad magic %q", f.Tag, hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != f.Version {
		return nil, fmt.Errorf("%s: unsupported format version %d (want %d)", f.Tag, v, f.Version)
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if count < 1 || count > maxSections {
		return nil, fmt.Errorf("%s: implausible section count %d", f.Tag, count)
	}
	sections := make(map[string][]byte, count)
	prev := ""
	for i := 0; i < count; i++ {
		nl, err := take(4)
		if err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint32(nl))
		if nameLen < 1 || nameLen > maxNameLen {
			return nil, fmt.Errorf("%s: implausible name length %d", f.Tag, nameLen)
		}
		nameB, err := take(nameLen)
		if err != nil {
			return nil, err
		}
		pl, err := take(8)
		if err != nil {
			return nil, err
		}
		payloadLen := binary.LittleEndian.Uint64(pl)
		if payloadLen > uint64(len(b)) {
			return nil, fmt.Errorf("%s: section %q claims %d bytes, file has %d", f.Tag, nameB, payloadLen, len(b))
		}
		payload, err := take(int(payloadLen))
		if err != nil {
			return nil, err
		}
		ck, err := take(4)
		if err != nil {
			return nil, err
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(ck); got != want {
			return nil, fmt.Errorf("%s: section %q checksum mismatch (%08x != %08x)", f.Tag, nameB, got, want)
		}
		// Only the sorted order EncodeContainer writes is canonical;
		// it also rules out duplicates. Names are non-empty, so the
		// first one passes.
		name := string(nameB)
		if name <= prev {
			return nil, fmt.Errorf("%s: section %q out of order (after %q)", f.Tag, name, prev)
		}
		prev = name
		sections[name] = payload
	}
	if off != len(b) {
		return nil, fmt.Errorf("%s: %d trailing bytes", f.Tag, len(b)-off)
	}
	return sections, nil
}

// ckptFormat is the FTCK checkpoint instance of the shared container.
var ckptFormat = Format{Magic: magic, Version: FormatVersion, Tag: "ckpt"}

// Encode serializes sections into the checkpoint container format.
func Encode(sections map[string][]byte) ([]byte, error) {
	return EncodeContainer(ckptFormat, sections)
}

// Decode parses a checkpoint container. See DecodeContainer for the
// validation and aliasing contract.
func Decode(b []byte) (map[string][]byte, error) {
	return DecodeContainer(ckptFormat, b)
}

// Expect reports an error unless sections holds exactly the named
// sections. The CRCs cover payloads only, so a bit flip inside a
// section name passes DecodeContainer; a reader with a fixed section
// set calls Expect to reject that flip too.
func Expect(sections map[string][]byte, names ...string) error {
	for _, name := range names {
		if _, ok := sections[name]; !ok {
			return fmt.Errorf("missing section %q", name)
		}
	}
	if len(sections) != len(names) {
		return fmt.Errorf("%d sections, want %d", len(sections), len(names))
	}
	return nil
}

// Reader decodes a section payload field by field, little-endian. A
// read past the end, or a Bool byte other than 0 or 1, fails the
// Reader and every later read returns zero, so a decoder reads straight
// through and checks Done once, at the end.
type Reader struct {
	b    []byte
	off  int
	fail bool
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) take(n int) []byte {
	if r.fail || n > len(r.b)-r.off {
		r.fail = true
		return make([]byte, n)
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.take(1)[0] }

// U32 reads a uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }

// U64 reads a uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// F32 reads a float32 bit pattern.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// F64 reads a float64 bit pattern, so NaN and ±Inf round-trip exactly.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a 0/1 byte; any other value fails the Reader, keeping the
// encoding canonical.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail = true
	}
	return v == 1
}

// Remaining returns the number of unread bytes. Decoders bound a count
// read from the payload by it before allocating.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done reports an error unless every read succeeded and the payload
// was consumed exactly.
func (r *Reader) Done() error {
	if r.fail {
		return errors.New("payload truncated or malformed")
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// WriteFile writes data to path through a temp file and a rename, so a
// crash mid-write leaves the old file or the new one, never a torn
// file. It does not fsync: every file written this way is CRC-checked
// when read and has a fallback — an earlier checkpoint, a retrain, or
// an error — so a write lost to power failure costs a redo, not a
// wrong result.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Store roots a directory of per-run checkpoint subdirectories.
type Store struct {
	dir    string
	keep   int
	resume bool
	sink   obs.Sink
}

// NewStore creates a checkpoint store rooted at dir. keep is the
// per-run retention depth (<= 0 → DefaultKeep). resume controls what
// runs derived from this store do with existing checkpoints: when true
// they load and continue from the newest intact one, when false they
// discard stale files and start fresh. sink receives ckpt.corrupt
// events (nil → obs.Null); save/restore events are emitted by the run
// layer, which knows the training position.
func NewStore(dir string, keep int, resume bool, sink obs.Sink) *Store {
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Store{dir: dir, keep: keep, resume: resume, sink: obs.Or(sink)}
}

// Run scopes the store to one training run key. Keys are sanitized to
// a filesystem-safe directory name; two phases of one logical run
// should suffix the shared key with ".phase" so ClearKey removes both.
func (s *Store) Run(key string) *Run {
	return &Run{
		dir:    filepath.Join(s.dir, sanitizeKey(key)),
		keep:   s.keep,
		resume: s.resume,
		sink:   s.sink,
	}
}

// ClearKey removes the checkpoint directories of key and of any phase
// sub-runs ("key.admm", "key.ft", ...) — called when the run's final
// result has been durably recorded elsewhere (e.g. the model cache), at
// which point its checkpoints are dead weight.
func (s *Store) ClearKey(key string) error {
	base := sanitizeKey(key)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if name != base && !strings.HasPrefix(name, base+".") {
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sanitizeKey maps a run key to a directory name: every byte outside
// [A-Za-z0-9._-] becomes '_', and all-dot names ("." and "..", which
// filepath.Join would resolve out of the store root) are neutralized.
func sanitizeKey(key string) string {
	if key == "" {
		return "_"
	}
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, key)
	if strings.Trim(out, ".") == "" {
		return strings.Repeat("_", len(out))
	}
	return out
}

// Run is one training run's checkpoint sequence.
type Run struct {
	dir    string
	keep   int
	resume bool
	sink   obs.Sink

	nextSeq int
	scanned bool
	cleared bool
}

// Dir returns the run's checkpoint directory.
func (r *Run) Dir() string { return r.dir }

const (
	filePrefix = "ckpt-"
	fileSuffix = ".ftck"
)

func seqName(seq int) string { return fmt.Sprintf("%s%08d%s", filePrefix, seq, fileSuffix) }

// parseSeq extracts the sequence number from a checkpoint file name,
// or -1 for foreign files.
func parseSeq(name string) int {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return -1
	}
	mid := name[len(filePrefix) : len(name)-len(fileSuffix)]
	if len(mid) == 0 {
		return -1
	}
	seq := 0
	for _, c := range mid {
		if c < '0' || c > '9' {
			return -1
		}
		seq = seq*10 + int(c-'0')
		if seq > 1<<30 {
			return -1
		}
	}
	return seq
}

// list returns the run's checkpoint sequence numbers in ascending
// order (missing directory → empty).
func (r *Run) list() []int {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var seqs []int
	for _, e := range entries {
		if seq := parseSeq(e.Name()); seq >= 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs
}

// Save writes sections as the run's next checkpoint: encode, write
// with WriteFile, prune beyond the retention depth. A run created
// without resume discards any stale checkpoint files from a previous
// attempt before its first write. Returns the path and encoded size.
func (r *Run) Save(sections map[string][]byte) (path string, size int, err error) {
	if !r.resume && !r.cleared {
		// Fresh (non-resuming) run: a stale sequence from a previous
		// crashed attempt must not shadow the new one.
		if err := os.RemoveAll(r.dir); err != nil && !os.IsNotExist(err) {
			return "", 0, fmt.Errorf("ckpt: clear stale run dir: %w", err)
		}
		r.cleared = true
	}
	data, err := Encode(sections)
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return "", 0, err
	}
	if !r.scanned {
		if seqs := r.list(); len(seqs) > 0 {
			r.nextSeq = seqs[len(seqs)-1] + 1
		}
		r.scanned = true
	}
	path = filepath.Join(r.dir, seqName(r.nextSeq))
	if err := WriteFile(path, data); err != nil {
		return "", 0, err
	}
	r.nextSeq++
	r.prune()
	return path, len(data), nil
}

// prune deletes all but the newest keep checkpoints (best effort — a
// leftover file is disk waste, not a correctness problem).
func (r *Run) prune() {
	seqs := r.list()
	for len(seqs) > r.keep {
		os.Remove(filepath.Join(r.dir, seqName(seqs[0])))
		seqs = seqs[1:]
	}
}

// Load returns the newest intact checkpoint of the run, walking the
// sequence newest-first and skipping (with one ckpt.corrupt event
// each) files that are torn, truncated, or bit-flipped. ok is false
// when the run is not resumable or no intact checkpoint exists — the
// caller starts fresh in either case.
func (r *Run) Load() (sections map[string][]byte, path string, ok bool) {
	if !r.resume {
		return nil, "", false
	}
	seqs := r.list()
	for i := len(seqs) - 1; i >= 0; i-- {
		p := filepath.Join(r.dir, seqName(seqs[i]))
		data, err := os.ReadFile(p)
		if err == nil {
			var secs map[string][]byte
			if secs, err = Decode(data); err == nil {
				return secs, p, true
			}
		}
		if r.sink.Enabled() {
			r.sink.Emit(obs.Event{Kind: obs.KindCkptCorrupt, Key: p, Msg: err.Error()})
		}
	}
	return nil, "", false
}

// Clear removes the run's checkpoint directory.
func (r *Run) Clear() error {
	err := os.RemoveAll(r.dir)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
