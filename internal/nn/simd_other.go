//go:build !amd64

package nn

// Only amd64 has the SIMD kernels; everywhere else StepBatch runs the Go
// kernels. The variable exists so that tests build on every architecture.
var useSIMD = false

func panelMul8(panels *float64, npanels, cols int, x *float64, xstride int, dst *float64, dstride int) {
	panic("nn: no panel kernel on this architecture")
}

// gateLanes refuses every row.
func gateLanes(pre, preH, bias, cPrev, gates, c, tanhC, h *float64, hidden int) bool { return false }
