//go:build !amd64

package nn

// Only amd64 has the SIMD kernels; everywhere else StepBatch runs the Go
// kernels. The variable exists so that tests build on every architecture.
var useSIMD = false

func panelMul8(panels *float64, npanels, cols int, x *float64, xstride int, dst *float64, dstride int) {
	panic("nn: no panel kernel on this architecture")
}

func panelMul1(panels *float64, npanels, cols int, x *float64, dst *float64) {
	panic("nn: no panel kernel on this architecture")
}

func fold4Lanes(o, b *float64, n int, ks *[4]int, ls *[4]float64) {
	panic("nn: no fold kernel on this architecture")
}

func fold1Lanes(o, b *float64, n int, l float64) {
	panic("nn: no fold kernel on this architecture")
}

// gateLanes refuses every row.
func gateLanes(pre, preH, bias, cPrev, gates, c, tanhC, h *float64, hidden int) bool { return false }

// The lane kernels refuse every group.
func sinLanes(x []float64) int { return 0 }
func logLanes(x []float64) int { return 0 }
func expLanes(x []float64) int { return 0 }
