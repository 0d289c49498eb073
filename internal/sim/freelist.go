package sim

// FreeList recycles the records of one type whose end of life their
// owner knows: a stream op when its stream retires it, a transfer
// record when its transfer starts, a match record when both requests
// have fired. The owner Puts a record back at that point and the next
// Get reuses it, so a run holds at most as many records as it ever had
// live at once, and its steady state allocates nothing.
//
// A record must never be Put while anything outside its owner can
// still reach it. A completion signal that escapes to a caller is
// therefore not embedded in a recycled record but held by pointer and
// owned by the garbage collector.
//
// The zero value is ready to use.
type FreeList[T any] struct {
	free []*T
}

// Get returns a zeroed record: a retired one when available, otherwise
// a fresh heap allocation.
//
//gat:hotpath
func (f *FreeList[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		return new(T)
	}
	p := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return p
}

// Put zeroes a retired record, releasing what it points to, and keeps
// it for the next Get.
//
//gat:hotpath
func (f *FreeList[T]) Put(p *T) {
	var zero T
	*p = zero
	f.free = append(f.free, p)
}

// Len returns the number of records waiting for reuse.
func (f *FreeList[T]) Len() int { return len(f.free) }
