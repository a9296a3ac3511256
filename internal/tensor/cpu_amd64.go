//go:build amd64 && !noasm

package tensor

// cpuid executes the CPUID instruction for the given leaf/subleaf.
// Implemented in cpu_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (extended control register 0), which tells us
// whether the OS saves/restores YMM state on context switch.
// Implemented in cpu_amd64.s. Only valid when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

var fastSupported, s8Supported, avxSupported, cpuFeatures = detectFast()

// detectFast probes CPUID for the features the fast kernels need:
// AVX2 and FMA for the instructions themselves, plus OSXSAVE and
// XCR0[2:1]=11b so the OS actually preserves the YMM registers the
// kernels live in. The int8 dot kernels need AVX2 and YMM state but no
// FMA, and the exact-tier float tiles need only AVX and YMM state, so
// each gets its own flag. The feature string reports whatever was
// found even when the combination is insufficient, so logs from a
// partial host explain *why* the fast tier fell back.
func detectFast() (fast, s8, avx bool, feats string) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false, false, ""
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	hasFMA := c1&fmaBit != 0
	hasAVX := c1&avxBit != 0
	osYMM := false
	if c1&osxsaveBit != 0 {
		lo, _ := xgetbv()
		osYMM = lo&0x6 == 0x6 // XMM and YMM state enabled by the OS
	}
	hasAVX2 := false
	if maxLeaf >= 7 {
		_, b7, _, _ := cpuid(7, 0)
		hasAVX2 = b7&(1<<5) != 0
	}

	add := func(name string, ok bool) {
		if !ok {
			return
		}
		if feats != "" {
			feats += ","
		}
		feats += name
	}
	add("avx", hasAVX && osYMM)
	add("avx2", hasAVX2 && osYMM)
	add("fma", hasFMA)

	s8 = hasAVX && hasAVX2 && osYMM
	return s8 && hasFMA, s8, hasAVX && osYMM, feats
}
