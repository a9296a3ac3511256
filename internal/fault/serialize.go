package fault

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/ftpim/ftpim/internal/ckpt"
)

// A device profile is an FTCK container (internal/ckpt) with one
// section. In a mass-production flow the march-test station measures
// each unit's defect map once and archives it; Encode/DecodeDeviceMap
// let those profiles be stored next to the golden model and replayed
// in simulation. The section holds, little-endian:
//
//	f64 Psa, u32 tensor count, then per tensor:
//	u32 rank, u32 dims[rank], u32 fault count, faults × {u32 index, u8 code}
//
// where code 0 is SA0, 1 is SA1 at +|w|max and 2 is SA1 at −|w|max.
const profileSection = "device"

// Decoder bounds: a profile is read from outside the program, and Mask
// allocates one byte per element of a tensor's shape.
const (
	maxProfileRank  = 8
	maxProfileElems = 1 << 24
)

// Encode serializes the device map as a checksummed profile file.
func (dm *DeviceMap) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(dm.Psa))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dm.shapes)))
	for ti, shape := range dm.shapes {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(shape)))
		for _, d := range shape {
			b = binary.LittleEndian.AppendUint32(b, uint32(d))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(dm.faults[ti])))
		for _, f := range dm.faults[ti] {
			code := byte(0)
			if f.kind == SA1 {
				code = 1
				if f.sign < 0 {
					code = 2
				}
			}
			b = append(binary.LittleEndian.AppendUint32(b, uint32(f.idx)), code)
		}
	}
	file, err := ckpt.Encode(map[string][]byte{profileSection: b})
	if err != nil {
		panic(fmt.Sprintf("fault: encode profile: %v", err)) // one fixed, valid section cannot fail
	}
	return file
}

// DecodeDeviceMap parses a profile written by Encode. It accepts only
// bytes Encode produces: any truncation, bit flip or trailing byte is
// an error.
func DecodeDeviceMap(file []byte) (*DeviceMap, error) {
	sections, err := ckpt.Decode(file)
	if err == nil {
		err = ckpt.Expect(sections, profileSection)
	}
	if err != nil {
		return nil, fmt.Errorf("fault: device profile: %w", err)
	}
	r := ckpt.NewReader(sections[profileSection])
	dm := &DeviceMap{Psa: r.F64()}
	if !(dm.Psa >= 0 && dm.Psa <= 1) {
		return nil, fmt.Errorf("fault: corrupt device map (psa %v)", dm.Psa)
	}
	count := int(r.U32())
	if count > r.Remaining()/8 { // each tensor takes at least 8 bytes
		return nil, fmt.Errorf("fault: corrupt device map (%d tensors)", count)
	}
	for ti := 0; ti < count; ti++ {
		rank := int(r.U32())
		if rank > maxProfileRank {
			return nil, fmt.Errorf("fault: corrupt device map (tensor %d rank %d)", ti, rank)
		}
		shape := make([]int, rank)
		n := 1
		for i := range shape {
			shape[i] = int(r.U32())
			if n *= shape[i]; n > maxProfileElems {
				return nil, fmt.Errorf("fault: corrupt device map (tensor %d shape exceeds %d elements)", ti, maxProfileElems)
			}
		}
		nf := int(r.U32())
		if nf > r.Remaining()/5 {
			return nil, fmt.Errorf("fault: corrupt device map (tensor %d claims %d faults)", ti, nf)
		}
		fs := make([]pinnedFault, nf)
		for i := range fs {
			idx, code := r.U32(), r.U8()
			if int64(idx) >= int64(n) || code > 2 {
				return nil, fmt.Errorf("fault: corrupt device map (tensor %d fault %d: index %d of %d, code %d)", ti, i, idx, n, code)
			}
			fs[i] = pinnedFault{idx: int32(idx), kind: SA0}
			switch code {
			case 1:
				fs[i].kind, fs[i].sign = SA1, 1
			case 2:
				fs[i].kind, fs[i].sign = SA1, -1
			}
		}
		dm.shapes = append(dm.shapes, shape)
		dm.faults = append(dm.faults, fs)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("fault: device profile: %w", err)
	}
	return dm, nil
}
