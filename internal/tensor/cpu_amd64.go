//go:build amd64 && !noasm

package tensor

// cpuid executes the CPUID instruction for the given leaf/subleaf.
// Implemented in cpu_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (extended control register 0), which tells us
// whether the OS saves/restores YMM state on context switch.
// Implemented in cpu_amd64.s. Only valid when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

var s8Supported, avxSupported, cpuFeatures = detectCPU()

// detectCPU probes CPUID for the features the asm kernels need: AVX
// for the exact float kernels and AVX2 for the int8 dot kernels, each
// with OSXSAVE and XCR0[2:1]=11b so the OS actually preserves the YMM
// registers the kernels live in. The feature string lists the features
// the kernels can use.
func detectCPU() (s8, avx bool, feats string) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false, ""
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
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

	return hasAVX && hasAVX2 && osYMM, hasAVX && osYMM, feats
}
