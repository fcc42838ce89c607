package obs

import "sync"

// ring is the bounded FIFO under the journal, the decision store, the
// tracer and the SLO tracker: appends are O(1), memory is fixed at
// capacity and the oldest record is overwritten first. buf is allocated
// on the first push or restore, so an idle ring adds nothing to the GC
// scan set. Len, Total, Dropped, Reset and snapshot lock mu; push, at,
// collect and restore leave locking to the owner, which holds mu (or a
// lock of its own, as the SLO tracker does).
type ring[T any] struct {
	mu       sync.Mutex
	capacity int
	buf      []T
	next     int
	count    int
	seq      uint64 // records ever pushed
}

// newRing returns an empty ring holding at most capacity records, at
// least one.
func newRing[T any](capacity int) ring[T] {
	return ring[T]{capacity: max(1, capacity)}
}

// push makes room for one record and returns its slot, which still holds
// the record it overwrites so the caller may recycle that record's
// buffers. seq counts the new record once push returns.
func (r *ring[T]) push() *T {
	if r.buf == nil {
		r.buf = make([]T, r.capacity)
	}
	slot := &r.buf[r.next]
	r.next = (r.next + 1) % len(r.buf)
	r.count = min(r.count+1, len(r.buf))
	r.seq++
	return slot
}

// at returns the i-th oldest retained record, 0 <= i < count.
func (r *ring[T]) at(i int) *T {
	return &r.buf[(r.next-r.count+i+len(r.buf))%len(r.buf)]
}

// collect returns the retained records keep accepts (nil keeps every
// one), oldest first, each passed through clone when it is not nil.
func (r *ring[T]) collect(keep func(*T) bool, clone func(T) T) []T {
	out := make([]T, 0, r.count)
	for i := 0; i < r.count; i++ {
		rec := r.at(i)
		switch {
		case keep != nil && !keep(rec):
		case clone != nil:
			out = append(out, clone(*rec))
		default:
			out = append(out, *rec)
		}
	}
	return out
}

// restore refills the ring from a checkpoint: seq records were ever
// pushed, and recs are the newest of them, oldest first. Only the newest
// capacity of recs fit; the rest count as dropped, exactly as if the
// ring had overwritten them live.
func (r *ring[T]) restore(seq uint64, recs []T) {
	if r.buf == nil {
		r.buf = make([]T, r.capacity)
	}
	recs = recs[max(0, len(recs)-len(r.buf)):]
	clear(r.buf)
	r.next = copy(r.buf, recs) % len(r.buf)
	r.count, r.seq = len(recs), seq
}

// ringStats is the drop accounting a served ring opens its JSON with.
type ringStats struct {
	Capacity int    `json:"capacity"`
	Total    uint64 `json:"total"`
	Dropped  uint64 `json:"dropped"`
}

// snapshot returns the drop accounting and what collect returns, read
// under one lock so the two agree: Total − Dropped records were retained.
func (r *ring[T]) snapshot(keep func(*T) bool, clone func(T) T) (ringStats, []T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ringStats{r.capacity, r.seq, r.seq - uint64(r.count)}, r.collect(keep, clone)
}

// Len returns how many records are retained.
func (r *ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Total returns how many records were ever recorded.
func (r *ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns how many records the ring has overwritten.
func (r *ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - uint64(r.count)
}

// Reset discards every retained record and the sequence counter; tests
// use it to isolate runs against a process-wide ring. The slots keep
// their records for push to recycle.
func (r *ring[T]) Reset() {
	r.mu.Lock()
	r.next, r.count, r.seq = 0, 0, 0
	r.mu.Unlock()
}
