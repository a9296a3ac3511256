package tensor

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
)

// RNG is the deterministic random source used everywhere in the
// library. All experiment stochasticity (init, shuffling, fault draws)
// flows through named sub-streams of a single root seed so that runs
// are exactly reproducible.
type RNG struct {
	*rand.Rand
	src  *rand.PCG
	seed uint64
}

// NewRNG returns a PCG-backed RNG for the given seed.
func NewRNG(seed uint64) *RNG {
	src := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{Rand: rand.New(src), src: src, seed: seed}
}

// MarshalState captures the RNG's exact position in its stream: the
// seed it was created with plus the underlying PCG state. A stream
// restored with UnmarshalState produces the same values the original
// would have produced from this point on — the primitive that lets a
// resumed training run replay the identical shuffle and augmentation
// draws an uninterrupted run would see.
func (r *RNG) MarshalState() ([]byte, error) {
	pcg, err := r.src.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8+len(pcg))
	binary.LittleEndian.PutUint64(buf, r.seed)
	copy(buf[8:], pcg)
	return buf, nil
}

// UnmarshalState restores a position captured by MarshalState.
func (r *RNG) UnmarshalState(b []byte) error {
	if len(b) < 8 {
		return errors.New("tensor: RNG state too short")
	}
	if err := r.src.UnmarshalBinary(b[8:]); err != nil {
		return err
	}
	r.seed = binary.LittleEndian.Uint64(b)
	return nil
}

// Seed returns the seed the RNG was created with.
func (r *RNG) Seed() uint64 { return r.seed }

// Reseed resets the RNG in place to the stream NewRNG(seed) would
// produce, without allocating. Hot loops that draw a fresh positional
// stream per iteration (fault.Injector.InjectRun) reuse one RNG this
// way instead of constructing a new one per run.
func (r *RNG) Reseed(seed uint64) {
	r.src.Seed(seed, seed^0x9e3779b97f4a7c15)
	r.seed = seed
}

// fnv64a is an inline FNV-1a hash of s — hash/fnv forces the input
// through an io.Writer interface, which allocates; this does not.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// StreamSeed returns the seed of the child stream (root, name) — the
// seed Stream derives, exposed so callers can Reseed a cached RNG onto
// the stream without allocating.
func StreamSeed(root uint64, name string) uint64 {
	return root ^ fnv64a(name)
}

// StreamSeedN returns the seed of the indexed child stream
// (root, name, n), matching StreamN.
func StreamSeedN(root uint64, name string, n int) uint64 {
	child := root ^ fnv64a(name)
	return child*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
}

// Stream derives an independent child RNG named by a string. Two
// streams with different names are statistically independent; the same
// (seed, name) pair always yields the same stream.
func (r *RNG) Stream(name string) *RNG {
	return NewRNG(StreamSeed(r.seed, name))
}

// StreamN derives an independent child RNG named by a string and an
// index, for per-run / per-epoch sub-streams.
func (r *RNG) StreamN(name string, n int) *RNG {
	return NewRNG(StreamSeedN(r.seed, name, n))
}

// Normal returns a normally distributed float32 with the given mean and
// standard deviation. The product is converted before the add, so no
// compiler fuses the two into one rounding.
func (r *RNG) Normal(mean, std float64) float32 {
	return float32(mean + float64(std*r.NormFloat64()))
}

// FillNormal fills t with N(mean, std²) samples.
func FillNormal(t *Tensor, r *RNG, mean, std float64) {
	for i := range t.data {
		t.data[i] = r.Normal(mean, std)
	}
}

// InitHe fills t with Kaiming-He normal initialization for a layer with
// the given fan-in, the standard choice for ReLU networks.
func InitHe(t *Tensor, r *RNG, fanIn int) {
	if fanIn <= 0 {
		panic("tensor: InitHe requires positive fan-in")
	}
	FillNormal(t, r, 0, math.Sqrt(2/float64(fanIn)))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.Rand.Perm(n) }
