package nn

import "math"

// useSIMD selects StepBatch's AVX and FMA kernels: PackPanels packs for
// panelMul8, and the gates take their exps four lanes at a time with
// expLanes, which replays math.Exp's FMA path. math.Exp takes that path
// exactly when the runtime reports AVX and FMA with YMM state saved by the
// OS, and not under GODEBUG=cpu.avx=off or cpu.fma=off, so its result on
// expProbe, which the FMA and the plain sequences round differently, is
// the whole check. Fixed at start-up; tests set it to false to run the Go
// kernels beside the SIMD ones.
var useSIMD = math.Exp(expProbe) == expProbeFMA

//go:noescape
func panelMul8(panels *float64, npanels, cols int, x *float64, xstride int, dst *float64, dstride int)

//go:noescape
func expLanes(x []float64) (done int)
