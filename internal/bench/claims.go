package bench

import (
	"fmt"
	"io"

	"gat/internal/jacobi"
	"gat/internal/sim"
)

// Claims are the paper's qualitative statements (C1–C7, listed in Claims),
// checked programmatically against the simulation. Each claim runs at a
// configurable scale; thresholds encode "shape" (orderings and rough
// factors), not absolute times.

// ClaimResult is one verified claim.
type ClaimResult struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

// Claim is a named check.
type Claim struct {
	ID   string
	Text string
	Run  func(opt Options) ClaimResult
}

// Claims returns all claim checks.
func Claims() []Claim {
	return []Claim{
		{"C1", "Overdecomposition helps the large weak-scaling problem (best ODF > 1 for Charm-H and Charm-D)", claimC1},
		{"C2", "Combining overlap and GPU-aware communication beats ODF-1 host staging substantially at scale", claimC2},
		{"C3", "MPI-D loses its advantage over MPI-H for 9 MB halos across nodes (pipelined staging protocol change)", claimC3},
		{"C4", "Small problem (192^3/node): ODF-1 is best and GPU-aware communication helps both runtimes", claimC4},
		{"C5", "Strong scaling: Charm-D is fastest, gains more from ODF-2 than Charm-H, and reaches sub-ms at scale", claimC5},
		{"C6", "Kernel fusion C improves the strong-scaling limit, more at ODF-8 than ODF-1", claimC6},
		{"C7", "CUDA graphs speed up ODF-8 without fusion; the benefit shrinks with fusion and at ODF-1", claimC7},
	}
}

// CheckClaims runs every claim and writes a PASS/FAIL report.
func CheckClaims(opt Options, w io.Writer) bool {
	all := true
	for _, c := range Claims() {
		res := c.Run(opt)
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
			all = false
		}
		fmt.Fprintf(w, "%-4s %s\n     %s\n     -> %s\n", res.ID, status, c.Text, res.Detail)
	}
	return all
}

// scaleNodes picks the largest node count <= MaxNodes (default hi).
func scaleNodes(hi int, opt Options) int {
	n := hi
	for opt.MaxNodes > 0 && n > opt.MaxNodes {
		n /= 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runCharm and runMPI execute one variant on a fresh machine. seed
// feeds the network jitter RNG (figure specs pass their RunSpec seed;
// the claim checks pass 0 — they are threshold checks, not figure
// points).
func runCharm(opt Options, global [3]int, nodes int, seed uint64, co jacobi.CharmOpts) jacobi.Result {
	return jacobi.RunCharm(opt.machineFor(nodes, seed), opt.cfg(global), co)
}

func runMPI(opt Options, global [3]int, nodes int, seed uint64, mo jacobi.MPIOpts) jacobi.Result {
	return jacobi.RunMPI(opt.machineFor(nodes, seed), opt.cfg(global), mo)
}

func claimC1(opt Options) ClaimResult {
	nodes := scaleNodes(4, opt)
	global := weakGlobal(weakBaseLarge, nodes)
	_, odfH := bestODF(opt, opt.cfg(global), nodes, 0, jacobi.CharmOpts{}.Optimized(), []int{1, 2, 4, 8})
	_, odfD := bestODF(opt, opt.cfg(global), nodes, 0, jacobi.CharmOpts{GPUAware: true}.Optimized(), []int{1, 2, 4, 8})
	return ClaimResult{ID: "C1",
		Pass:   odfH > 1 && odfD > 1,
		Detail: fmt.Sprintf("nodes=%d best ODF: Charm-H=%d Charm-D=%d (paper: 4 and 2)", nodes, odfH, odfD)}
}

func claimC2(opt Options) ClaimResult {
	nodes := scaleNodes(64, opt)
	global := weakGlobal(weakBaseLarge, nodes)
	base := runCharm(opt, global, nodes, 0, jacobi.CharmOpts{ODF: 1}.Optimized())
	best, odf := bestODF(opt, opt.cfg(global), nodes, 0, jacobi.CharmOpts{GPUAware: true}.Optimized(), []int{1, 2, 4})
	gain := float64(base.TimePerIter)/float64(best.TimePerIter) - 1
	return ClaimResult{ID: "C2",
		Pass: best.TimePerIter < base.TimePerIter,
		Detail: fmt.Sprintf("nodes=%d ODF-1 Charm-H %v vs Charm-D ODF-%d %v (%.0f%% faster; paper: 61%% at 512 nodes)",
			nodes, base.TimePerIter, odf, best.TimePerIter, gain*100)}
}

func claimC3(opt Options) ClaimResult {
	nodes := scaleNodes(16, opt)
	if nodes < 2 {
		nodes = 2
	}
	global := weakGlobal(weakBaseLarge, nodes)
	h := runMPI(opt, global, nodes, 0, jacobi.MPIOpts{})
	d := runMPI(opt, global, nodes, 0, jacobi.MPIOpts{Device: true})
	ratio := float64(h.TimePerIter) / float64(d.TimePerIter)
	return ClaimResult{ID: "C3",
		Pass: ratio < 1.35 && ratio > 0.7,
		Detail: fmt.Sprintf("nodes=%d MPI-H/MPI-D = %.2f (pipelined staging erases the GPUDirect gap; paper: ~1.0)",
			nodes, ratio)}
}

func claimC4(opt Options) ClaimResult {
	nodes := scaleNodes(8, opt)
	global := weakGlobal(weakBaseSmall, nodes)
	_, odfH := bestODF(opt, opt.cfg(global), nodes, 0, jacobi.CharmOpts{}.Optimized(), []int{1, 2, 4})
	_, odfD := bestODF(opt, opt.cfg(global), nodes, 0, jacobi.CharmOpts{GPUAware: true}.Optimized(), []int{1, 2, 4})
	mh := runMPI(opt, global, nodes, 0, jacobi.MPIOpts{})
	md := runMPI(opt, global, nodes, 0, jacobi.MPIOpts{Device: true})
	ch := runCharm(opt, global, nodes, 0, jacobi.CharmOpts{ODF: 1}.Optimized())
	cd := runCharm(opt, global, nodes, 0, jacobi.CharmOpts{ODF: 1, GPUAware: true}.Optimized())
	pass := odfH == 1 && odfD == 1 && md.TimePerIter < mh.TimePerIter && cd.TimePerIter < ch.TimePerIter
	return ClaimResult{ID: "C4",
		Pass: pass,
		Detail: fmt.Sprintf("nodes=%d best ODFs H/D=%d/%d; MPI %v->%v, Charm %v->%v with GPU-awareness",
			nodes, odfH, odfD, mh.TimePerIter, md.TimePerIter, ch.TimePerIter, cd.TimePerIter)}
}

func claimC5(opt Options) ClaimResult {
	nodes := scaleNodes(512, opt)
	if nodes < 8 {
		nodes = 8
	}
	h1 := runCharm(opt, strongGlobal, nodes, 0, jacobi.CharmOpts{ODF: 1}.Optimized())
	h2 := runCharm(opt, strongGlobal, nodes, 0, jacobi.CharmOpts{ODF: 2}.Optimized())
	d1 := runCharm(opt, strongGlobal, nodes, 0, jacobi.CharmOpts{ODF: 1, GPUAware: true}.Optimized())
	d2 := runCharm(opt, strongGlobal, nodes, 0, jacobi.CharmOpts{ODF: 2, GPUAware: true}.Optimized())
	mh := runMPI(opt, strongGlobal, nodes, 0, jacobi.MPIOpts{})
	gainH := float64(h1.TimePerIter)/float64(h2.TimePerIter) - 1
	gainD := float64(d1.TimePerIter)/float64(d2.TimePerIter) - 1
	best := d2.TimePerIter
	if d1.TimePerIter < best {
		best = d1.TimePerIter
	}
	subMS := nodes < 512 || best < sim.Millisecond
	pass := best < mh.TimePerIter && best < h2.TimePerIter && gainD > gainH && subMS
	return ClaimResult{ID: "C5",
		Pass: pass,
		Detail: fmt.Sprintf("nodes=%d Charm-D best %v (MPI-H %v); ODF-2 gain: Charm-D %.0f%% vs Charm-H %.0f%% (paper: +13%% vs -13%%)",
			nodes, best, mh.TimePerIter, gainD*100, gainH*100)}
}

func claimC6(opt Options) ClaimResult {
	nodes := scaleNodes(128, opt)
	run := func(odf int, f jacobi.Fusion) sim.Time {
		return runCharm(opt, fusionGlobal, nodes, 0,
			jacobi.CharmOpts{ODF: odf, GPUAware: true, Fusion: f}.Optimized()).TimePerIter
	}
	b1, c1 := run(1, jacobi.FusionNone), run(1, jacobi.FusionC)
	b8, c8 := run(8, jacobi.FusionNone), run(8, jacobi.FusionC)
	gain1 := 1 - float64(c1)/float64(b1)
	gain8 := 1 - float64(c8)/float64(b8)
	// Fusion only pays once kernels are fine-grained enough; the
	// paper's own Fig 8a shows no ODF-1 effect until 32 nodes. Below
	// 64 nodes, require only the high-ODF part of the claim.
	pass := c8 < b8 && gain8 > gain1
	if nodes >= 64 {
		pass = pass && c1 < b1
	}
	return ClaimResult{ID: "C6",
		Pass: pass,
		Detail: fmt.Sprintf("nodes=%d fusion-C gain: ODF-1 %.0f%% (paper 20%%), ODF-8 %.0f%% (paper 51%%)",
			nodes, gain1*100, gain8*100)}
}

func claimC7(opt Options) ClaimResult {
	nodes := scaleNodes(128, opt)
	speedup := func(odf int, f jacobi.Fusion) float64 {
		base := runCharm(opt, fusionGlobal, nodes, 0,
			jacobi.CharmOpts{ODF: odf, GPUAware: true, Fusion: f}.Optimized()).TimePerIter
		g := runCharm(opt, fusionGlobal, nodes, 0,
			jacobi.CharmOpts{ODF: odf, GPUAware: true, Fusion: f, Graphs: true}.Optimized()).TimePerIter
		return float64(base) / float64(g)
	}
	none8 := speedup(8, jacobi.FusionNone)
	c8 := speedup(8, jacobi.FusionC)
	return ClaimResult{ID: "C7",
		Pass: none8 > 1.2 && c8 < none8 && c8 < 1.2,
		Detail: fmt.Sprintf("nodes=%d ODF-8 graph speedup: no fusion %.2fx (paper 1.5x), fusion C %.2fx (paper ~1.0x)",
			nodes, none8, c8)}
}
