// Package bbprof reimplements the baseline the AlgoProf paper compares
// against conceptually: Goldsmith, Aiken and Wilkerson's "Measuring
// Empirical Computational Complexity" (ESEC/FSE'07). It counts basic-block
// executions per program location across several runs, and fits a cost
// function per location — but, unlike algorithmic profiling, it requires
// the user to supply the input size of every run and cannot identify
// algorithms or inputs automatically.
package bbprof

import (
	"fmt"
	"sort"
	"strings"

	"algoprof/internal/cfg"
	"algoprof/internal/fit"
	"algoprof/internal/mj/bytecode"
)

// Location identifies a basic block.
type Location struct {
	MethodID int
	Block    int
}

// Run is one execution's per-location block counts at a user-declared
// input size.
type Run struct {
	// Size is the manually supplied input size (the manual step the paper
	// automates away).
	Size   int
	Counts map[Location]int64
}

// Profiler counts basic-block executions for one run. Wire its Hook into
// the VM's InstrHook. Both the pc→block lookup and the counters are dense
// per-method slices, so the per-instruction hot path never hashes; the
// map-shaped Run view is materialized only by Snapshot.
type Profiler struct {
	prog *bytecode.Program
	// blockOf[m][pc] is the block index + 1 of a block starting at pc in
	// method m, or 0 when pc is not a block start.
	blockOf [][]int32
	// counts[m][b] is the execution count of method m's block b.
	counts [][]int64
}

// New builds a profiler for prog (computing each function's CFG once).
func New(prog *bytecode.Program) *Profiler {
	p := &Profiler{
		prog:    prog,
		blockOf: make([][]int32, len(prog.Funcs)),
		counts:  make([][]int64, len(prog.Funcs)),
	}
	for i, fn := range prog.Funcs {
		g := cfg.Build(fn)
		starts := make([]int32, len(fn.Code))
		for _, b := range g.Blocks {
			starts[b.Start] = int32(b.Index) + 1
		}
		p.blockOf[i] = starts
		p.counts[i] = make([]int64, len(g.Blocks))
	}
	return p
}

// Hook is the VM instruction hook: it counts block entries. A tick naming
// a method or pc the program lacks counts nothing.
func (p *Profiler) Hook(methodID, pc int) {
	if uint(methodID) >= uint(len(p.blockOf)) {
		return
	}
	row := p.blockOf[methodID]
	if uint(pc) < uint(len(row)) {
		if b := row[pc]; b != 0 {
			p.counts[methodID][b-1]++
		}
	}
}

// Snapshot returns the counts accumulated so far (copied) as a Run with
// the given declared size. Blocks never executed are omitted.
func (p *Profiler) Snapshot(size int) Run {
	out := map[Location]int64{}
	for m, row := range p.counts {
		for b, c := range row {
			if c != 0 {
				out[Location{MethodID: m, Block: b}] = c
			}
		}
	}
	return Run{Size: size, Counts: out}
}

// Reset clears the counters for the next run.
func (p *Profiler) Reset() {
	for _, row := range p.counts {
		clear(row)
	}
}

// LocationFit is the fitted cost function of one basic block across runs.
type LocationFit struct {
	Loc Location
	Fit *fit.Fit
}

// FitAll fits a cost function per location over the runs' declared sizes,
// returning locations sorted by fitted growth at the largest size
// (steepest first). Locations executed in no run are omitted.
func FitAll(runs []Run) []LocationFit {
	locs := map[Location]bool{}
	for _, r := range runs {
		for l := range r.Counts {
			locs[l] = true
		}
	}
	maxSize := 0
	for _, r := range runs {
		if r.Size > maxSize {
			maxSize = r.Size
		}
	}
	var out []LocationFit
	for l := range locs {
		pts := make([]fit.Point, 0, len(runs))
		for _, r := range runs {
			pts = append(pts, fit.Point{Size: float64(r.Size), Cost: float64(r.Counts[l])})
		}
		f := fit.Best(pts)
		if f == nil {
			continue
		}
		out = append(out, LocationFit{Loc: l, Fit: f})
	}
	sort.Slice(out, func(i, j int) bool {
		gi := out[i].Fit.Eval(float64(maxSize))
		gj := out[j].Fit.Eval(float64(maxSize))
		if gi != gj {
			return gi > gj
		}
		if out[i].Loc.MethodID != out[j].Loc.MethodID {
			return out[i].Loc.MethodID < out[j].Loc.MethodID
		}
		return out[i].Loc.Block < out[j].Loc.Block
	})
	return out
}

// Render prints the top-k fitted locations.
func Render(prog *bytecode.Program, fits []LocationFit, k int) string {
	var sb strings.Builder
	for i, lf := range fits {
		if i >= k {
			break
		}
		m := prog.Sem.MethodByID(lf.Loc.MethodID)
		fmt.Fprintf(&sb, "%s block %d: cost ≈ %s (R2=%.3f)\n",
			m.QualifiedName(), lf.Loc.Block, lf.Fit, lf.Fit.R2)
	}
	return sb.String()
}
