package data

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/ftpim/ftpim/internal/tensor"
)

// CIFAR binary-format constants (https://www.cs.toronto.edu/~kriz/cifar.html).
const (
	cifarSide   = 32
	cifarPixels = 3 * cifarSide * cifarSide // 3072
)

// LoadCIFAR10Dir loads the CIFAR-10 binary distribution from dir
// (data_batch_1..5.bin and test_batch.bin). Both splits are returned
// normalized with the training statistics.
func LoadCIFAR10Dir(dir string) (train, test *Dataset, err error) {
	var trainFiles []string
	for i := 1; i <= 5; i++ {
		trainFiles = append(trainFiles, filepath.Join(dir, fmt.Sprintf("data_batch_%d.bin", i)))
	}
	train, err = loadCIFARFiles("cifar10-train", trainFiles, 10, false)
	if err != nil {
		return nil, nil, err
	}
	test, err = loadCIFARFiles("cifar10-test", []string{filepath.Join(dir, "test_batch.bin")}, 10, false)
	if err != nil {
		return nil, nil, err
	}
	mean, std := train.Normalize()
	test.ApplyNormalization(mean, std)
	return train, test, nil
}

// LoadCIFAR100Dir loads the CIFAR-100 binary distribution from dir
// (train.bin and test.bin) using the fine labels.
func LoadCIFAR100Dir(dir string) (train, test *Dataset, err error) {
	train, err = loadCIFARFiles("cifar100-train", []string{filepath.Join(dir, "train.bin")}, 100, true)
	if err != nil {
		return nil, nil, err
	}
	test, err = loadCIFARFiles("cifar100-test", []string{filepath.Join(dir, "test.bin")}, 100, true)
	if err != nil {
		return nil, nil, err
	}
	mean, std := train.Normalize()
	test.ApplyNormalization(mean, std)
	return train, test, nil
}

// loadCIFARFiles parses concatenated CIFAR records. CIFAR-100 records
// carry a coarse label byte before the fine label byte.
func loadCIFARFiles(name string, paths []string, classes int, coarseByte bool) (*Dataset, error) {
	record := 1 + cifarPixels
	if coarseByte {
		record = 2 + cifarPixels
	}
	var raw []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("data: %w", err)
		}
		raw = append(raw, b...)
	}
	return parseCIFARRecords(raw, name, classes, coarseByte, record)
}

func parseCIFARRecords(raw []byte, name string, classes int, coarseByte bool, record int) (*Dataset, error) {
	if len(raw)%record != 0 {
		return nil, fmt.Errorf("data: %s size %d is not a multiple of record size %d", name, len(raw), record)
	}
	n := len(raw) / record
	d := &Dataset{
		Name:    name,
		Images:  tensor.New(n, 3, cifarSide, cifarSide),
		Labels:  make([]int, n),
		Classes: classes,
	}
	xd := d.Images.Data()
	for i := 0; i < n; i++ {
		rec := raw[i*record : (i+1)*record]
		label := int(rec[0])
		pix := rec[1:]
		if coarseByte {
			label = int(rec[1]) // fine label
			pix = rec[2:]
		}
		if label >= classes {
			return nil, fmt.Errorf("data: %s record %d label %d out of range", name, i, label)
		}
		d.Labels[i] = label
		base := i * cifarPixels
		for j := 0; j < cifarPixels; j++ {
			xd[base+j] = float32(pix[j]) / 255
		}
	}
	return d, nil
}
