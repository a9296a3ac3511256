package tensor

import (
	"fmt"
	"math"
)

// Add returns t + u element-wise.
func Add(t, u *Tensor) *Tensor {
	checkSame("Add", t, u)
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] + u.data[i]
	}
	return out
}

// AddInPlace sets t += u element-wise, one rounded add per element,
// on the AVX run-add kernel where the CPU has AVX.
func (t *Tensor) AddInPlace(u *Tensor) {
	checkSame("AddInPlace", t, u)
	addRuns(t.data, u.data, 1, len(t.data), 0)
}

// AddRows adds the rows of src, each len(dst) long, to dst in ascending
// row order: dst[x] += src[y·len(dst) + x], one rounded add per element
// and row, on the AVX run-add kernel where the CPU has AVX. len(src)
// must be a multiple of len(dst).
func AddRows(dst, src []float32) {
	if len(src) == 0 {
		return
	}
	if len(dst) == 0 || len(src)%len(dst) != 0 {
		panic("tensor: AddRows source is not a whole number of rows")
	}
	addRuns(dst, src, len(src)/len(dst), len(dst), 0)
}

// Sub returns t - u element-wise.
func Sub(t, u *Tensor) *Tensor {
	checkSame("Sub", t, u)
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] - u.data[i]
	}
	return out
}

// SubInPlace sets t -= u element-wise.
func (t *Tensor) SubInPlace(u *Tensor) {
	checkSame("SubInPlace", t, u)
	for i := range t.data {
		t.data[i] -= u.data[i]
	}
}

// Mul returns the Hadamard (element-wise) product t ⊙ u.
func Mul(t, u *Tensor) *Tensor {
	checkSame("Mul", t, u)
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] * u.data[i]
	}
	return out
}

// MulInPlace sets t ⊙= u element-wise.
func (t *Tensor) MulInPlace(u *Tensor) {
	checkSame("MulInPlace", t, u)
	for i := range t.data {
		t.data[i] *= u.data[i]
	}
}

// Scale multiplies every element of t by a in place.
func (t *Tensor) Scale(a float32) {
	for i := range t.data {
		t.data[i] *= a
	}
}

// Scaled returns a copy of t with every element multiplied by a.
func (t *Tensor) Scaled(a float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = v * a
	}
	return out
}

// Axpy performs t += a*u (BLAS-style saxpy).
func (t *Tensor) Axpy(a float32, u *Tensor) {
	checkSame("Axpy", t, u)
	for i := range t.data {
		t.data[i] += a * u.data[i]
	}
}

// Apply replaces each element v with f(v).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// Map returns a new tensor whose elements are f applied to t's.
func Map(t *Tensor, f func(float32) float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// Dot returns the inner product of two tensors of equal size.
func Dot(t, u *Tensor) float64 {
	if len(t.data) != len(u.data) {
		panic("tensor: Dot size mismatch")
	}
	var s float64
	for i := range t.data {
		s += float64(t.data[i]) * float64(u.data[i])
	}
	return s
}

// ArgMax returns the index of the maximum element of a rank-1 view of t.
// Ties resolve to the lowest index.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// ArgMaxRow returns the argmax of row i of a rank-2 tensor.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Row(i)
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}

// Min and Max return the extreme values of the tensor.
func (t *Tensor) Min() float32 {
	if len(t.data) == 0 {
		return 0
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum element (0 for an empty tensor).
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		return 0
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Variance returns the population variance of the elements.
func (t *Tensor) Variance() float64 {
	n := len(t.data)
	if n == 0 {
		return 0
	}
	mean := t.Mean()
	var s float64
	for _, v := range t.data {
		d := float64(v) - mean
		s += d * d
	}
	return s / float64(n)
}

// Softmax computes row-wise softmax of a rank-2 tensor into out
// (allocated if nil) and returns it. Numerically stabilized by the
// row max.
func Softmax(t, out *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Softmax requires rank-2 tensor")
	}
	if out == nil {
		out = New(t.shape...)
	}
	checkSame("Softmax", t, out)
	rows, cols := t.shape[0], t.shape[1]
	for r := 0; r < rows; r++ {
		in := t.data[r*cols : (r+1)*cols]
		o := out.data[r*cols : (r+1)*cols]
		mx := in[0]
		for _, v := range in[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for j, v := range in {
			e := math.Exp(float64(v - mx))
			o[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range o {
			o[j] *= inv
		}
	}
	return out
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := New(c, r)
	// Simple blocked transpose for cache friendliness.
	const bs = 32
	for i0 := 0; i0 < r; i0 += bs {
		imax := min(i0+bs, r)
		for j0 := 0; j0 < c; j0 += bs {
			jmax := min(j0+bs, c)
			for i := i0; i < imax; i++ {
				for j := j0; j < jmax; j++ {
					out.data[j*r+i] = t.data[i*c+j]
				}
			}
		}
	}
	return out
}

func checkSame(op string, t, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
