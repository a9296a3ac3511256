package reram_test

import (
	"fmt"

	"github.com/ftpim/ftpim/internal/reram"
	"github.com/ftpim/ftpim/internal/tensor"
)

// Map a weight matrix onto differential crossbar tiles, break one
// cell, and read back the weights the analog array now implements.
func ExampleMapMatrix() {
	w := tensor.FromSlice([]float32{0.5, -1.0}, 1, 2) // 1 output, 2 inputs
	m := reram.MapMatrix(w, reram.MapOptions{
		TileRows: 4, TileCols: 4, Levels: 0, Gmin: 0.1, Gmax: 10,
	})
	fmt.Printf("fault-free readback: %.2f %.2f\n",
		m.EffectiveWeights().At(0, 0), m.EffectiveWeights().At(0, 1))

	pos, _ := m.Tiles(0, 0)
	pos.SetFault(0, 0, reram.FaultSA1) // input 0's positive cell sticks on
	fmt.Printf("after stuck-on fault: %.2f %.2f\n",
		m.EffectiveWeights().At(0, 0), m.EffectiveWeights().At(0, 1))
	// Output:
	// fault-free readback: 0.50 -1.00
	// after stuck-on fault: 1.00 -1.00
}

// A march test finds every stuck cell on an array.
func ExampleMarchTest() {
	x := reram.NewCrossbar(4, 4, 0, 0.1, 10)
	x.SetFault(1, 2, reram.FaultSA0)
	x.SetFault(3, 0, reram.FaultSA1)
	kinds := map[reram.CellFault]string{reram.FaultSA0: "SA0", reram.FaultSA1: "SA1"}
	for _, f := range reram.MarchTest(x, 1.0, tensor.NewRNG(1)) {
		fmt.Printf("cell (%d,%d): %s\n", f.Row, f.Col, kinds[f.Kind])
	}
	// Output:
	// cell (1,2): SA0
	// cell (3,0): SA1
}
