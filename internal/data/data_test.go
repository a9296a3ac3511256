package data

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"github.com/ftpim/ftpim/internal/tensor"
)

func tinySynth() SynthConfig {
	return SynthConfig{
		Classes: 4, TrainPer: 12, TestPer: 5,
		Channels: 3, Size: 8, Basis: 8,
		NoiseStd: 0.2, ShiftMax: 1, JitterStd: 0.1,
		Seed: 7,
	}
}

func TestGenerateShapesAndLabels(t *testing.T) {
	train, test := Generate(tinySynth())
	if train.N() != 48 || test.N() != 20 {
		t.Fatalf("N train=%d test=%d", train.N(), test.N())
	}
	c, h, w := train.Dims()
	if c != 3 || h != 8 || w != 8 {
		t.Fatalf("dims %d %d %d", c, h, w)
	}
	for _, l := range train.Labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
	}
	hist := make([]int, train.Classes)
	for _, l := range train.Labels {
		hist[l]++
	}
	for cl, n := range hist {
		if n != 12 {
			t.Fatalf("class %d has %d examples, want 12", cl, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(tinySynth())
	b, _ := Generate(tinySynth())
	if !a.Images.Equal(b.Images) {
		t.Fatal("same seed must generate identical data")
	}
	cfg := tinySynth()
	cfg.Seed = 8
	c, _ := Generate(cfg)
	if a.Images.Equal(c.Images) {
		t.Fatal("different seeds should generate different data")
	}
}

func TestGenerateNormalized(t *testing.T) {
	train, _ := Generate(tinySynth())
	c, h, w := train.Dims()
	area := h * w
	xd := train.Images.Data()
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for i := 0; i < train.N(); i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				v := float64(xd[base+j])
				sum += v
				sq += v * v
			}
		}
		cnt := float64(train.N() * area)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d not normalized: mean=%v var=%v", ch, mean, variance)
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// A nearest-class-mean classifier on raw pixels must beat chance by
	// a wide margin, otherwise the synthetic task carries no signal.
	train, test := Generate(tinySynth())
	c, h, w := train.Dims()
	stride := c * h * w
	means := make([][]float64, train.Classes)
	counts := make([]int, train.Classes)
	for i := range means {
		means[i] = make([]float64, stride)
	}
	for i := 0; i < train.N(); i++ {
		l := train.Labels[i]
		counts[l]++
		img := train.Images.Data()[i*stride : (i+1)*stride]
		for j, v := range img {
			means[l][j] += float64(v)
		}
	}
	for l := range means {
		for j := range means[l] {
			means[l][j] /= float64(counts[l])
		}
	}
	correct := 0
	for i := 0; i < test.N(); i++ {
		img := test.Images.Data()[i*stride : (i+1)*stride]
		best, bl := math.Inf(1), -1
		for l := range means {
			var d float64
			for j, v := range img {
				diff := float64(v) - means[l][j]
				d += diff * diff
			}
			if d < best {
				best, bl = d, l
			}
		}
		if bl == test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.N())
	if acc < 0.5 {
		t.Fatalf("nearest-mean accuracy %.2f; synthetic task is not learnable", acc)
	}
}

func TestSubsetAndHead(t *testing.T) {
	train, _ := Generate(tinySynth())
	sub := train.Subset([]int{3, 0})
	if sub.N() != 2 || sub.Labels[0] != train.Labels[3] || sub.Labels[1] != train.Labels[0] {
		t.Fatal("Subset mislabeled")
	}
	head := train.Head(5)
	if head.N() != 5 || head.Labels[2] != train.Labels[2] {
		t.Fatal("Head wrong")
	}
	if train.Head(10_000).N() != train.N() {
		t.Fatal("Head should clamp")
	}
}

func TestLoaderCoversEveryExampleOnce(t *testing.T) {
	train, _ := Generate(tinySynth())
	rng := tensor.NewRNG(3)
	l := NewLoader(train, 7, Augment{}, true, rng)
	l.Epoch()
	seen := 0
	labelCount := make([]int, train.Classes)
	for {
		x, y := l.Next()
		if x == nil {
			break
		}
		if x.Dim(0) != len(y) {
			t.Fatal("batch size mismatch")
		}
		seen += len(y)
		for _, li := range y {
			labelCount[li]++
		}
	}
	if seen != train.N() {
		t.Fatalf("epoch visited %d of %d examples", seen, train.N())
	}
	for cl, n := range labelCount {
		if n != 12 {
			t.Fatalf("class %d seen %d times", cl, n)
		}
	}
	if l.Steps() != (train.N()+6)/7 {
		t.Fatalf("Steps=%d", l.Steps())
	}
}

func TestLoaderShuffleChangesOrder(t *testing.T) {
	train, _ := Generate(tinySynth())
	rng := tensor.NewRNG(4)
	l := NewLoader(train, train.N(), Augment{}, true, rng)
	l.Epoch()
	_, y1 := l.Next()
	first := append([]int(nil), y1...)
	l.Epoch()
	_, y2 := l.Next()
	same := true
	for i := range first {
		if first[i] != y2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("reshuffled epoch should differ (overwhelmingly likely)")
	}
}

func TestLoaderNoShuffleStableOrder(t *testing.T) {
	train, _ := Generate(tinySynth())
	l := NewLoader(train, 5, Augment{}, false, tensor.NewRNG(1))
	l.Epoch()
	_, y := l.Next()
	for i, li := range y {
		if li != train.Labels[i] {
			t.Fatal("unshuffled loader must preserve order")
		}
	}
}

func TestAugmentPreservesEnergyScale(t *testing.T) {
	// Augmentation must not blow up or zero out images.
	train, _ := Generate(tinySynth())
	rng := tensor.NewRNG(5)
	l := NewLoader(train, 16, Augment{Flip: true, ShiftMax: 2}, true, rng)
	l.Epoch()
	x, _ := l.Next()
	if !x.IsFinite() {
		t.Fatal("augmented batch has NaN/Inf")
	}
	if x.MaxAbs() == 0 {
		t.Fatal("augmented batch is all zero")
	}
}

func TestFlipIsInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		c, h, w := 2, 4, 6
		img := make([]float32, c*h*w)
		for i := range img {
			img[i] = r.Normal(0, 1)
		}
		orig := append([]float32(nil), img...)
		flip := func(im []float32) {
			for ch := 0; ch < c; ch++ {
				for y := 0; y < h; y++ {
					row := im[(ch*h+y)*w : (ch*h+y)*w+w]
					for x := 0; x < w/2; x++ {
						row[x], row[w-1-x] = row[w-1-x], row[x]
					}
				}
			}
		}
		flip(img)
		flip(img)
		for i := range img {
			if img[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// buildCIFARStream fabricates n CIFAR-10-format records.
func buildCIFARStream(n int, classes int) []byte {
	r := tensor.NewRNG(9)
	buf := make([]byte, 0, n*(1+cifarPixels))
	for i := 0; i < n; i++ {
		buf = append(buf, byte(i%classes))
		for j := 0; j < cifarPixels; j++ {
			buf = append(buf, byte(r.Uint64()%256))
		}
	}
	return buf
}

// ParseCIFARReader parses CIFAR-10-format records from a stream; it
// exists so tests can exercise the record parser without disk files.
func ParseCIFARReader(r io.Reader, name string, classes int) (*Dataset, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parseCIFARRecords(raw, name, classes, false, 1+cifarPixels)
}

func TestParseCIFARReader(t *testing.T) {
	raw := buildCIFARStream(6, 10)
	ds, err := ParseCIFARReader(bytes.NewReader(raw), "fake", 10)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 6 || ds.Classes != 10 {
		t.Fatalf("N=%d classes=%d", ds.N(), ds.Classes)
	}
	c, h, w := ds.Dims()
	if c != 3 || h != 32 || w != 32 {
		t.Fatalf("dims %d %d %d", c, h, w)
	}
	if ds.Labels[3] != 3 {
		t.Fatalf("label[3]=%d", ds.Labels[3])
	}
	// Pixels are scaled to [0,1].
	if ds.Images.Max() > 1 || ds.Images.Min() < 0 {
		t.Fatal("pixel scaling out of range")
	}
}

func TestParseCIFARReaderTruncated(t *testing.T) {
	raw := buildCIFARStream(2, 10)
	if _, err := ParseCIFARReader(bytes.NewReader(raw[:len(raw)-10]), "bad", 10); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func TestLoadCIFAR10DirMissing(t *testing.T) {
	if _, _, err := LoadCIFAR10Dir(t.TempDir()); err == nil {
		t.Fatal("expected error when files are missing")
	}
}

// Epoch reshuffles the previous permutation in place, so PermState /
// SetPermState must round-trip the exact batch order a fresh loader
// with the same RNG state would otherwise not reproduce.
func TestLoaderPermStateRoundTrip(t *testing.T) {
	ds, _ := Generate(SynthConfig{Classes: 3, TrainPer: 20, TestPer: 5, Channels: 1, Size: 4, Basis: 4, Seed: 2})

	a := NewLoader(ds, 7, Augment{}, true, tensor.NewRNG(3))
	a.Epoch()
	a.Epoch() // two shuffles deep: perm != shuffle(identity)
	if a.PermState() == nil {
		t.Fatal("PermState must be non-nil after Epoch")
	}

	b := NewLoader(ds, 7, Augment{}, true, tensor.NewRNG(9))
	if b.PermState() != nil {
		t.Fatal("PermState before any Epoch must be nil")
	}
	if err := b.SetPermState(a.PermState()); err != nil {
		t.Fatal(err)
	}
	// Same perm, no reshuffle: both loaders must emit identical label
	// sequences.
	for {
		_, la := a.Next()
		_, lb := b.Next()
		if la == nil && lb == nil {
			break
		}
		if len(la) != len(lb) {
			t.Fatal("batch sizes diverged")
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatal("restored permutation produced a different batch order")
			}
		}
	}
}

func TestLoaderSetPermStateValidates(t *testing.T) {
	ds, _ := Generate(SynthConfig{Classes: 3, TrainPer: 10, TestPer: 5, Channels: 1, Size: 4, Basis: 4, Seed: 2})
	l := NewLoader(ds, 4, Augment{}, true, tensor.NewRNG(1))
	if err := l.SetPermState([]int{0, 1}); err == nil {
		t.Fatal("wrong-length perm must be rejected")
	}
	bad := make([]int, ds.N())
	for i := range bad {
		bad[i] = 0 // duplicate indices
	}
	if err := l.SetPermState(bad); err == nil {
		t.Fatal("non-permutation must be rejected")
	}
	oob := make([]int, ds.N())
	for i := range oob {
		oob[i] = i
	}
	oob[0] = ds.N() // out of range
	if err := l.SetPermState(oob); err == nil {
		t.Fatal("out-of-range index must be rejected")
	}
}

// TestLoadCIFAR10DirReadsEveryBatch: the loader concatenates the five
// training batches in order and normalizes the test split with the
// training statistics: a test split that repeats the first batch reads
// back as the first training images, bit for bit.
func TestLoadCIFAR10DirReadsEveryBatch(t *testing.T) {
	dir := t.TempDir()
	first := buildCIFARStream(2, 10)
	for i := 1; i <= 5; i++ {
		b := first
		if i > 1 {
			b = buildCIFARStream(i, 10)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("data_batch_%d.bin", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "test_batch.bin"), first, 0o644); err != nil {
		t.Fatal(err)
	}
	train, test, err := LoadCIFAR10Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if train.N() != 2+2+3+4+5 || test.N() != 2 || train.Classes != 10 {
		t.Fatalf("train %d, test %d, classes %d", train.N(), test.N(), train.Classes)
	}
	wantLabels := []int{0, 1, 0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 4}
	if !slices.Equal(train.Labels, wantLabels) {
		t.Fatalf("train labels %v, want the batches in order %v", train.Labels, wantLabels)
	}
	if !slices.Equal(test.Images.Data(), train.Images.Data()[:test.Images.Len()]) {
		t.Fatal("the test split was not normalized with the training statistics")
	}
}

// buildCIFAR100Stream fabricates n CIFAR-100-format records: a coarse
// label byte, a fine label byte, then the pixels.
func buildCIFAR100Stream(n int, fine func(i int) byte) []byte {
	r := tensor.NewRNG(10)
	buf := make([]byte, 0, n*(2+cifarPixels))
	for i := 0; i < n; i++ {
		buf = append(buf, byte(i%20), fine(i))
		for j := 0; j < cifarPixels; j++ {
			buf = append(buf, byte(r.Uint64()%256))
		}
	}
	return buf
}

// TestLoadCIFAR100DirUsesFineLabels: CIFAR-100 records label by their
// second byte, and a fine label past 99 is an error.
func TestLoadCIFAR100DirUsesFineLabels(t *testing.T) {
	dir := t.TempDir()
	fine := func(i int) byte { return byte(99 - 7*i) }
	if err := os.WriteFile(filepath.Join(dir, "train.bin"), buildCIFAR100Stream(5, fine), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "test.bin"), buildCIFAR100Stream(2, fine), 0o644); err != nil {
		t.Fatal(err)
	}
	train, test, err := LoadCIFAR100Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if train.Classes != 100 || !slices.Equal(train.Labels, []int{99, 92, 85, 78, 71}) || !slices.Equal(test.Labels, []int{99, 92}) {
		t.Fatalf("classes %d, train labels %v, test labels %v", train.Classes, train.Labels, test.Labels)
	}
	if c, h, w := train.Dims(); c != 3 || h != 32 || w != 32 {
		t.Fatalf("dims %d×%d×%d", c, h, w)
	}
	bad := buildCIFAR100Stream(1, func(int) byte { return 100 })
	if err := os.WriteFile(filepath.Join(dir, "test.bin"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCIFAR100Dir(dir); err == nil {
		t.Fatal("a fine label of 100 was accepted")
	}
}
