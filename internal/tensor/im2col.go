package tensor

// ConvOutSize returns the output spatial size of a convolution over an
// input of size in with the given kernel size, stride and symmetric
// zero padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// im2colRow fills one row of the column matrix: the (ky, kx) tap of the
// channel whose plane starts at src[chBase], over every output
// position. It is the shared inner body of the implicit-GEMM paths in
// convgemm.go that generate column rows on the fly and of the Im2Col
// test oracle, so every lowering writes identical values.
func im2colRow(d, src []float32, chBase, ky, kx, h, w, outH, outW, stride, pad int) {
	di := 0
	for oy := 0; oy < outH; oy++ {
		iy := oy*stride - pad + ky
		if iy < 0 || iy >= h {
			for ox := 0; ox < outW; ox++ {
				d[di] = 0
				di++
			}
			continue
		}
		rowBase := chBase + iy*w
		ix := -pad + kx
		for ox := 0; ox < outW; ox++ {
			if ix >= 0 && ix < w {
				d[di] = src[rowBase+ix]
			} else {
				d[di] = 0
			}
			di++
			ix += stride
		}
	}
}

// col2imRow scatter-adds one column-matrix row — the (ky, kx) tap of
// the channel whose plane starts at dst[chBase] — back into the image.
// It is the shared inner body of the fused col2im consumer in
// convgemm.go and of the Col2Im test oracle, so both scatter paths
// perform identical accumulations in identical order.
func col2imRow(dst, s []float32, chBase, ky, kx, h, w, outH, outW, stride, pad int) {
	si := 0
	for oy := 0; oy < outH; oy++ {
		iy := oy*stride - pad + ky
		if iy < 0 || iy >= h {
			si += outW
			continue
		}
		rowBase := chBase + iy*w
		ix := -pad + kx
		for ox := 0; ox < outW; ox++ {
			if ix >= 0 && ix < w {
				dst[rowBase+ix] += s[si]
			}
			si++
			ix += stride
		}
	}
}
