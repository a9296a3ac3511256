package data

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// SynthConfig controls the synthetic CIFAR-like generator.
//
// Each class is a point in a shared low-frequency texture space: class
// prototypes are coefficient vectors over a bank of random 2-D
// sinusoid basis textures. A sample re-mixes its class coefficients
// with per-sample coefficient noise (CoefNoise — the knob that creates
// genuine class overlap, since coefficient-space perturbations survive
// convolutional averaging), then applies random circular shift,
// horizontal flip, gain/offset jitter, and additive pixel noise. With
// many classes drawn from a fixed-size basis the classes crowd the
// space and the task gets harder — mirroring how CIFAR-100 is harder
// than CIFAR-10 at equal resolution.
type SynthConfig struct {
	Classes   int
	TrainPer  int // training examples per class
	TestPer   int // test examples per class
	Channels  int
	Size      int     // square image side
	Basis     int     // number of shared sinusoid basis textures
	CoefNoise float64 // per-sample coefficient noise (class overlap)
	NoiseStd  float64 // additive pixel noise
	ShiftMax  int     // max circular shift in either axis
	JitterStd float64 // per-sample gain jitter
	Seed      uint64
}

// SynthC10 is a small 10-class CIFAR-10 stand-in (16×16 images) for
// tests; the presets carry their own configs (experiments.ScaleFor).
func SynthC10() SynthConfig {
	return SynthConfig{
		Classes: 10, TrainPer: 200, TestPer: 60,
		Channels: 3, Size: 16, Basis: 24,
		CoefNoise: 0.25, NoiseStd: 0.35, ShiftMax: 2, JitterStd: 0.15,
		Seed: 1001,
	}
}

// Generate builds the train and test splits. The generator is fully
// deterministic in cfg.Seed. Both splits are normalized with the train
// split's per-channel statistics.
func Generate(cfg SynthConfig) (train, test *Dataset) {
	if cfg.Classes <= 0 || cfg.Size <= 0 || cfg.Channels <= 0 || cfg.Basis <= 0 {
		panic(fmt.Sprintf("data: invalid synth config %+v", cfg))
	}
	root := tensor.NewRNG(cfg.Seed)

	basis := makeBasis(root.Stream("basis"), cfg)
	coeffs := makeClassCoeffs(root.Stream("protos"), cfg)

	train = sampleSplit(root.Stream("train"), cfg, basis, coeffs, cfg.TrainPer, "train")
	test = sampleSplit(root.Stream("test"), cfg, basis, coeffs, cfg.TestPer, "test")
	mean, std := train.Normalize()
	test.ApplyNormalization(mean, std)
	return train, test
}

// makeBasis builds cfg.Basis smooth texture fields of shape C×S×S.
// Each product is converted before the add, so no compiler fuses the
// two into one rounding. r.Float64 scales its draw by 2⁻⁵³ with a
// product of its own, so its result is converted too.
func makeBasis(r *tensor.RNG, cfg SynthConfig) []*tensor.Tensor {
	s := cfg.Size
	basis := make([]*tensor.Tensor, cfg.Basis)
	for b := range basis {
		t := tensor.New(cfg.Channels, s, s)
		// Each basis texture is a sum of a few random low-frequency
		// plane waves, channel-correlated but not identical.
		waves := 2 + int(r.Uint64()%3)
		type wave struct{ fx, fy, phase, amp float64 }
		ws := make([]wave, waves)
		for i := range ws {
			ws[i] = wave{
				fx:    (float64(float64(r.Float64())*2) - 1) * 2.5,
				fy:    (float64(float64(r.Float64())*2) - 1) * 2.5,
				phase: float64(r.Float64()) * 2 * math.Pi,
				amp:   0.5 + float64(r.Float64()),
			}
		}
		for c := 0; c < cfg.Channels; c++ {
			chPhase := float64(r.Float64() * math.Pi)
			chGain := 0.6 + float64(0.8*r.Float64())
			for y := 0; y < s; y++ {
				for x := 0; x < s; x++ {
					var v float64
					for _, w := range ws {
						arg := 2*math.Pi*(float64(w.fx*float64(x))+float64(w.fy*float64(y)))/float64(s) + w.phase + chPhase
						v += float64(w.amp * math.Sin(arg))
					}
					t.Set(float32(chGain*v), c, y, x)
				}
			}
		}
		basis[b] = t
	}
	return basis
}

// makeClassCoeffs draws one sparse coefficient vector per class. The
// product is converted before the add, so no compiler fuses the two
// into one rounding.
func makeClassCoeffs(r *tensor.RNG, cfg SynthConfig) [][]float32 {
	coeffs := make([][]float32, cfg.Classes)
	active := 3
	if active > cfg.Basis {
		active = cfg.Basis
	}
	for cl := range coeffs {
		c := make([]float32, cfg.Basis)
		perm := r.Perm(cfg.Basis)
		for k := 0; k < active; k++ {
			coef := float32(0.7 + float64(0.8*r.Float64()))
			if r.Uint64()%2 == 0 {
				coef = -coef
			}
			c[perm[k]] = coef
		}
		coeffs[cl] = c
	}
	return coeffs
}

// sampleSplit draws per examples of every class. The gain's product
// is converted before the adds, so no compiler fuses them into one
// rounding.
func sampleSplit(r *tensor.RNG, cfg SynthConfig, basis []*tensor.Tensor, coeffs [][]float32, per int, split string) *Dataset {
	n := per * cfg.Classes
	d := &Dataset{
		Name:    fmt.Sprintf("synth-c%d-%s", cfg.Classes, split),
		Images:  tensor.New(n, cfg.Channels, cfg.Size, cfg.Size),
		Labels:  make([]int, n),
		Classes: cfg.Classes,
	}
	s := cfg.Size
	stride := cfg.Channels * s * s
	mixed := tensor.New(cfg.Channels, s, s)
	i := 0
	for cl := 0; cl < cfg.Classes; cl++ {
		base := coeffs[cl]
		for e := 0; e < per; e++ {
			// Coefficient-space remix: the class overlap knob.
			mixed.Zero()
			for k, c := range base {
				ck := c
				if cfg.CoefNoise > 0 {
					ck += r.Normal(0, cfg.CoefNoise)
				}
				if ck != 0 {
					mixed.Axpy(ck, basis[k])
				}
			}
			dst := d.Images.Data()[i*stride : (i+1)*stride]
			dx := int(r.Uint64()%uint64(2*cfg.ShiftMax+1)) - cfg.ShiftMax
			dy := int(r.Uint64()%uint64(2*cfg.ShiftMax+1)) - cfg.ShiftMax
			flip := r.Uint64()%2 == 0
			gain := float32(1 + r.Normal(0, cfg.JitterStd))
			offset := r.Normal(0, cfg.JitterStd/2)
			for c := 0; c < cfg.Channels; c++ {
				for y := 0; y < s; y++ {
					sy := ((y+dy)%s + s) % s
					for x := 0; x < s; x++ {
						sx := ((x+dx)%s + s) % s
						if flip {
							sx = s - 1 - sx
						}
						v := float32(gain*mixed.At(c, sy, sx)) + offset + r.Normal(0, cfg.NoiseStd)
						dst[(c*s+y)*s+x] = v
					}
				}
			}
			d.Labels[i] = cl
			i++
		}
	}
	// Shuffle so mini-batches are class-mixed.
	perm := r.Perm(n)
	out := d.Subset(perm)
	out.Name = d.Name
	return out
}
