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

// Axpy performs t += a*u (BLAS-style saxpy). The product is converted
// before the add, so no compiler fuses the two into one rounding.
func (t *Tensor) Axpy(a float32, u *Tensor) {
	checkSame("Axpy", t, u)
	for i := range t.data {
		t.data[i] += float32(a * u.data[i])
	}
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
