package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tensor-list encoding, the one on-disk layout of float state (model
// snapshots, optimizer momentum, ADMM variables). All fields are
// little-endian:
//
//	u32 count
//	count × { u32 rank, u32 dims[rank], f32 data[dims product] }
//
// A nil list entry is written as the single u32 absentRank and stands
// for an absent tensor (a dense parameter's missing pruning mask). The
// encoding is canonical: DecodeTensors accepts exactly the bytes
// AppendTensors produces, so decode∘encode is the identity.
const (
	absentRank = math.MaxUint32
	maxRank    = 8
)

// AppendTensors appends the encoding of ts to dst and returns the
// extended slice.
func AppendTensors(dst []byte, ts ...*Tensor) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ts)))
	for _, t := range ts {
		if t == nil {
			dst = binary.LittleEndian.AppendUint32(dst, absentRank)
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.shape)))
		for _, d := range t.shape {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
		}
		for _, v := range t.data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// DecodeTensors decodes a list written by AppendTensors. It consumes b
// exactly: trailing bytes are an error. Every tensor gets fresh
// storage, so the result does not alias b. Shapes are checked against
// the bytes actually present before anything is allocated, so hostile
// input cannot demand more memory than its own length.
func DecodeTensors(b []byte) ([]*Tensor, error) {
	off := 0
	// words counts the whole u32/f32 words left; every u32 call is
	// preceded by a words check.
	words := func() int { return (len(b) - off) / 4 }
	u32 := func() int {
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return int(v)
	}
	if words() < 1 {
		return nil, fmt.Errorf("tensor: list truncated at count")
	}
	count := u32()
	if count > words() { // every entry takes at least one word
		return nil, fmt.Errorf("tensor: list claims %d entries in %d bytes", count, len(b)-off)
	}
	ts := make([]*Tensor, count)
	for i := range ts {
		if words() < 1 {
			return nil, fmt.Errorf("tensor: entry %d truncated", i)
		}
		rank := u32()
		if rank == absentRank {
			continue
		}
		if rank > maxRank || rank > words() {
			return nil, fmt.Errorf("tensor: entry %d has rank %d (max %d) in %d bytes", i, rank, maxRank, len(b)-off)
		}
		shape := make([]int, rank)
		n := 1 // element count, clamped past words() so it cannot overflow
		for j := range shape {
			if shape[j] = u32(); shape[j] != 0 && n > words()/shape[j] {
				n = words() + 1 // a later zero dim still makes it 0
			} else {
				n *= shape[j]
			}
		}
		if n > words() {
			return nil, fmt.Errorf("tensor: entry %d shape %v exceeds the remaining %d bytes", i, shape, len(b)-off)
		}
		data := make([]float32, n)
		for k := range data {
			data[k] = math.Float32frombits(uint32(u32()))
		}
		ts[i] = &Tensor{shape: shape, data: data}
	}
	if off != len(b) {
		return nil, fmt.Errorf("tensor: %d trailing bytes after list", len(b)-off)
	}
	return ts, nil
}
