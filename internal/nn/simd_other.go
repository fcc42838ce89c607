//go:build !amd64

package nn

// Only amd64 has the SIMD kernels; everywhere else StepBatch runs the Go
// kernels. The variable exists so that tests build on every architecture.
var useSIMD = false

// Nothing calls the product kernels where useSIMD is false.
func panelMul8(panels *float64, npanels, cols int, x *float64, xstride int, dst *float64, dstride int) {
	panic("nn: no SIMD kernels")
}
func panelMul1(panels *float64, npanels, cols int, x *float64, dst *float64) {
	panic("nn: no SIMD kernels")
}
func fold4Lanes(o, b *float64, n int, ks *[4]int, ls *[4]float64)      { panic("nn: no SIMD kernels") }
func fold1Lanes(o, b *float64, n int, l float64)                       { panic("nn: no SIMD kernels") }
func outer4Lanes(dst, x *float64, n int, rows *[4]int, ys *[4]float64) { panic("nn: no SIMD kernels") }
func adamLanes(w, grad, m, v *float64, n int, k *[8]float64)           { panic("nn: no SIMD kernels") }

// gateLanes refuses every row.
func gateLanes(pre, preH, bias, cPrev, gates, c, tanhC, h *float64, hidden int) bool { return false }

// The lane kernels refuse every group.
func sinLanes(x []float64) int { return 0 }
func logLanes(x []float64) int { return 0 }
func expLanes(x []float64) int { return 0 }
