// Package data provides the image-classification datasets the
// experiments train on: a deterministic synthetic CIFAR-like generator
// (the default, since the reproduction environment has no dataset
// files) and a loader for the real CIFAR-10/100 binary format which is
// used verbatim when the files are present.
package data

import (
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/tensor"
)

// Dataset is an in-memory labeled image set in NCHW layout.
type Dataset struct {
	Name    string
	Images  *tensor.Tensor // (N, C, H, W), normalized
	Labels  []int
	Classes int
}

// N returns the number of examples.
func (d *Dataset) N() int { return len(d.Labels) }

// Dims returns (C, H, W).
func (d *Dataset) Dims() (c, h, w int) {
	return d.Images.Dim(1), d.Images.Dim(2), d.Images.Dim(3)
}

// Example copies example i into dst (C·H·W floats) and returns its label.
func (d *Dataset) Example(i int, dst []float32) int {
	c, h, w := d.Dims()
	stride := c * h * w
	copy(dst, d.Images.Data()[i*stride:(i+1)*stride])
	return d.Labels[i]
}

// Subset returns a view dataset containing the examples at idx.
func (d *Dataset) Subset(idx []int) *Dataset {
	c, h, w := d.Dims()
	stride := c * h * w
	out := &Dataset{
		Name:    d.Name + "-subset",
		Images:  tensor.New(len(idx), c, h, w),
		Labels:  make([]int, len(idx)),
		Classes: d.Classes,
	}
	for j, i := range idx {
		copy(out.Images.Data()[j*stride:(j+1)*stride], d.Images.Data()[i*stride:(i+1)*stride])
		out.Labels[j] = d.Labels[i]
	}
	return out
}

// Head returns the first n examples as a view-copy (convenient for
// quicker evaluation sweeps).
func (d *Dataset) Head(n int) *Dataset {
	if n > d.N() {
		n = d.N()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	s := d.Subset(idx)
	s.Name = d.Name
	return s
}

// Normalize shifts and scales images in place to zero mean and unit
// std per channel, returning the statistics used. The squares are
// converted before they are added or subtracted, so no compiler fuses
// the two into one rounding.
func (d *Dataset) Normalize() (mean, std []float32) {
	c, h, w := d.Dims()
	n := d.N()
	area := h * w
	mean = make([]float32, c)
	std = make([]float32, c)
	xd := d.Images.Data()
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				v := float64(xd[base+j])
				sum += v
				sq += float64(v * v)
			}
		}
		cnt := float64(n * area)
		m := sum / cnt
		variance := sq/cnt - float64(m*m)
		if variance < 1e-12 {
			variance = 1e-12
		}
		mean[ch] = float32(m)
		std[ch] = float32(math.Sqrt(variance))
		inv := 1 / std[ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				xd[base+j] = (xd[base+j] - mean[ch]) * inv
			}
		}
	}
	return mean, std
}

// ApplyNormalization normalizes with externally supplied statistics
// (e.g. the training set's), as required for a test split.
func (d *Dataset) ApplyNormalization(mean, std []float32) {
	c, h, w := d.Dims()
	if len(mean) != c || len(std) != c {
		panic(fmt.Sprintf("data: normalization stats for %d channels, dataset has %d", len(mean), c))
	}
	area := h * w
	xd := d.Images.Data()
	for ch := 0; ch < c; ch++ {
		inv := 1 / std[ch]
		for i := 0; i < d.N(); i++ {
			base := (i*c + ch) * area
			for j := 0; j < area; j++ {
				xd[base+j] = (xd[base+j] - mean[ch]) * inv
			}
		}
	}
}
