//go:build !amd64

package nn

// Only amd64 has the SIMD kernels; everywhere else StepBatch runs the Go
// kernels. The variable exists so that tests build on every architecture.
var useSIMD = false

func panelMul8(panels *float64, npanels, cols int, x *float64, xstride int, dst *float64, dstride int) {
	panic("nn: no panel kernel on this architecture")
}

// expLanes refuses every lane.
func expLanes(x []float64) int { return 0 }
