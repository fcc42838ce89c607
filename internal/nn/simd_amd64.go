package nn

import "math"

// useSIMD selects the AVX and FMA kernels: PackPanels and the backward
// pass pack for panelMul8 and panelMul1, mulRowsInto folds on fold4Lanes
// and fold1Lanes, AddOuterInto on outer4Lanes, Adam.Step runs adamLanes,
// gateRow gateLanes, whose exps replay math.Exp's FMA path four lanes at
// a time, and Sin, Log and Exp run sinLanes, logLanes and expLanes.
// math.Exp takes that path exactly when the runtime reports AVX and FMA
// with YMM state saved by the OS, and not under GODEBUG=cpu.avx=off or
// cpu.fma=off, so its result on expProbe, which the FMA and the plain
// sequences round differently, is the whole check. Fixed at start-up;
// tests set it to false to run the Go kernels beside the SIMD ones.
var useSIMD = math.Exp(expProbe) == expProbeFMA

//go:noescape
func panelMul8(panels *float64, npanels, cols int, x *float64, xstride int, dst *float64, dstride int)

//go:noescape
func panelMul1(panels *float64, npanels, cols int, x *float64, dst *float64)

//go:noescape
func fold4Lanes(o, b *float64, n int, ks *[4]int, ls *[4]float64)

//go:noescape
func fold1Lanes(o, b *float64, n int, l float64)

//go:noescape
func outer4Lanes(dst, x *float64, n int, rows *[4]int, ys *[4]float64)

//go:noescape
func adamLanes(w, grad, m, v *float64, n int, k *[8]float64)

//go:noescape
func gateLanes(pre, preH, bias, cPrev, gates, c, tanhC, h *float64, hidden int) (ok bool)

// The lane kernels behind Sin, Log and Exp stop at the first group they
// refuse, untouched, and return the lanes before it.
//
//go:noescape
func sinLanes(x []float64) (done int)

//go:noescape
func logLanes(x []float64) (done int)

//go:noescape
func expLanes(x []float64) (done int)
