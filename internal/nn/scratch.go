package nn

// slabFloats is the size of one arena slab: 1024 float64s, 8 KiB.
const slabFloats = 1024

// Scratch is a bump arena of reusable buffers for allocation-free forward
// and backward passes. Layers draw step vectors and cache structs from it
// instead of the heap. Vectors are carved off fixed-size slabs by a
// cursor; Reset rewinds the cursor in O(1), so a training loop that resets
// once per window reaches a steady state with zero heap allocations per
// step — and, issuing the same sizes in the same order, gets the same
// addresses back every cycle.
//
// Slabs stay fixed-size: a working set larger than one slab spans several,
// and they are never consolidated into one block sized to the high-water
// mark — the prototype that did raised peak RSS on the DeepAR/TFT pipeline
// by 10-20 %, the fixed-slab arena did not.
//
// Ownership rules (see DESIGN.md "Performance & concurrency"):
//
//   - A Scratch belongs to exactly one goroutine. Parallel workers each
//     carry their own; arenas are never shared or locked.
//   - Buffers issued before a Reset are dead after it. Callers must not
//     retain scratch-backed slices (hidden states, caches) across Reset —
//     the arena will hand the same memory out again.
//   - A nil *Scratch is valid everywhere and falls back to plain heap
//     allocation, so cold paths keep their original behaviour without a
//     second code path.
type Scratch struct {
	slabs [][]float64 // slabFloats each, except one-off slabs for larger requests
	cur   int         // slab the cursor is in
	off   int         // floats already issued from slabs[cur]

	lstm  structPool[LSTMCache]
	dense structPool[DenseCache]
	act   structPool[ActCache]
	attn  structPool[AttnCache]
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// Vec returns a length-n buffer with unspecified contents. Callers must
// fully overwrite it (or use VecZero when accumulating). Its capacity is
// its length, so an append reallocates instead of writing into the next
// vector. nil receivers allocate from the heap.
func (s *Scratch) Vec(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	for s.cur < len(s.slabs) {
		if slab := s.slabs[s.cur]; n <= len(slab)-s.off {
			v := slab[s.off : s.off+n : s.off+n]
			s.off += n
			return v
		}
		s.cur++
		s.off = 0
	}
	slab := make([]float64, max(n, slabFloats))
	s.slabs = append(s.slabs, slab)
	s.off = n
	return slab[:n:n]
}

// VecZero returns a zeroed length-n buffer.
func (s *Scratch) VecZero(n int) []float64 {
	v := s.Vec(n)
	for i := range v {
		v[i] = 0
	}
	return v
}

// Mat returns a zeroed rows x cols matrix backed by the arena: NewMat's
// arena form.
func (s *Scratch) Mat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: s.VecZero(rows * cols)}
}

// Reset recycles every buffer and cache issued since the last Reset. The
// caller promises nothing issued before the Reset is still referenced.
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	s.cur, s.off = 0, 0
	s.lstm.reset()
	s.dense.reset()
	s.act.reset()
	s.attn.reset()
}

// lstmCache returns a pooled (dirty) LSTM step cache.
func (s *Scratch) lstmCache() *LSTMCache {
	if s == nil {
		return &LSTMCache{}
	}
	return s.lstm.get()
}

// denseCache returns a pooled (dirty) dense cache.
func (s *Scratch) denseCache() *DenseCache {
	if s == nil {
		return &DenseCache{}
	}
	return s.dense.get()
}

// actCache returns a pooled (dirty) activation cache.
func (s *Scratch) actCache() *ActCache {
	if s == nil {
		return &ActCache{}
	}
	return s.act.get()
}

// attnCache returns a pooled (dirty) attention cache.
func (s *Scratch) attnCache() *AttnCache {
	if s == nil {
		return &AttnCache{}
	}
	return s.attn.get()
}

// structPool recycles cache structs of one type. Every struct it has ever
// issued lives either in free or in used; reset moves used back to free,
// so in steady state get never touches the heap. New structs come in
// chunks as large as the pool already is, so growing to n structs takes
// O(log n) allocations rather than n.
type structPool[T any] struct {
	free []*T
	used []*T
}

func (p *structPool[T]) get() *T {
	if len(p.free) == 0 {
		chunk := make([]T, max(8, len(p.used)))
		for i := range chunk {
			p.free = append(p.free, &chunk[i])
		}
	}
	n := len(p.free)
	v := p.free[n-1]
	p.free = p.free[:n-1]
	p.used = append(p.used, v)
	return v
}

func (p *structPool[T]) reset() {
	p.free = append(p.free, p.used...)
	p.used = p.used[:0]
}
