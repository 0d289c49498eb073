// Testdata for the hotpath analyzer: the four banned constructs fire
// only inside //gat:hotpath functions, //gat:alloc-ok exempts single
// cold lines, and unannotated functions are out of contract.
package td

type doer interface{ do() }

type impl struct{ n int }

func (impl) do() {}

func sink(any) {}

func cleanup() {}

//gat:hotpath
func closure(n int) func() int {
	f := func() int { return n } // want `function literal`
	return f
}

//gat:hotpath
func deferred() {
	defer cleanup() // want `defer`
}

//gat:hotpath
func mapWrites(m map[int]int, k int) {
	m[k] = 1     // want `write to map`
	m[k] += 2    // want `write to map`
	m[k]++       // want `write to map`
	delete(m, k) // want `write to map`
}

//gat:hotpath
func boxing(v impl) doer {
	var d doer = v // want `box impl into doer`
	d = v          // want `box impl into doer`
	sinkDoer(d)
	sink(v)    // want `box impl into any`
	_ = any(v) // want `box impl into any`
	return v   // want `box impl into doer`
}

//gat:hotpath
func noBoxNeeded(d doer, v impl) doer {
	sinkDoer(d) // interface-to-interface: the box already exists
	sinkImpl(v) // concrete-to-concrete: no conversion
	var x doer  // declaration without value: nothing boxed
	x = d       // interface into interface
	return x
}

func sinkDoer(doer) {}

func sinkImpl(impl) {}

//gat:hotpath
func clean(xs []int, ys []impl) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	ys = append(ys, impl{n: s}) // append of concrete values: fine
	_ = ys
	return s
}

//gat:hotpath
func exempted(m map[int]int) {
	//gat:alloc-ok testdata: cold path, demonstrating the exemption
	m[0] = 1
	m[1] = 2 // want `write to map`
}

// unannotated uses every banned construct: out of contract, silent.
func unannotated(m map[int]int, v impl) {
	defer cleanup()
	m[0] = 1
	_ = func() {}
	sink(v)
}

// miniFreeList mirrors the simulator's record free lists: a hot get
// whose empty branch allocates a fresh record — new itself is not a
// banned construct — and a hot put that recycles. Bookkeeping on the
// fresh-record branch still needs a line-scoped exemption, and put gets
// no blanket pass just because it runs when a record retires.
type miniFreeList struct {
	free  []*int
	fresh map[int]int
	onPut func()
}

//gat:hotpath
func (f *miniFreeList) get() *int {
	n := len(f.free)
	if n == 0 {
		//gat:alloc-ok testdata: one registry write per fresh record, none in steady state
		f.fresh[len(f.fresh)] = 1
		return new(int) // fresh record: not a banned construct
	}
	p := f.free[n-1]
	f.free = f.free[:n-1]
	return p
}

//gat:hotpath
func (f *miniFreeList) put(p *int) {
	*p = 0
	f.free = append(f.free, p)
	f.onPut = func() {} // want `function literal`
	for k := range f.fresh {
		delete(f.fresh, k) // want `write to map`
	}
}
