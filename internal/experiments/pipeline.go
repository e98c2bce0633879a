package experiments

import (
	"fmt"
	"sort"
	"strings"

	"algoprof"
	"algoprof/internal/bbprof"
	"algoprof/internal/benchfile"
	"algoprof/internal/cct"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/vm"
	"algoprof/internal/workloads"
)

// ---------------------------------------------------------------------------
// Single-pass backend comparison: one execution feeds the algorithmic
// profiler, the CCT baseline, and the basic-block baseline through each
// thread's session (algoprof.Config.Backends), where comparing backends
// previously re-ran the workload once per listener.

// HottestExclusive is the thread's hottest method by exclusive CCT cost.
func HottestExclusive(b algoprof.Baselines) string {
	flat := b.CCT.Flat()
	if len(flat) == 0 {
		return ""
	}
	return b.Program.Sem.MethodByID(flat[0].MethodID).QualifiedName()
}

// TopBlock names the thread's hottest basic block by raw execution count.
func TopBlock(b algoprof.Baselines) string {
	var best string
	var bestCount int64 = -1
	for _, l := range blockOrder(b.Blocks) {
		if c := b.Blocks.Counts[l]; c > bestCount {
			bestCount = c
			best = fmt.Sprintf("%s block %d (%d executions)",
				b.Program.Sem.MethodByID(l.MethodID).QualifiedName(), l.Block, c)
		}
	}
	return best
}

// blockOrder lists a run's block locations by method, then block.
func blockOrder(run bbprof.Run) []bbprof.Location {
	locs := make([]bbprof.Location, 0, len(run.Counts))
	for l := range run.Counts {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].MethodID != locs[j].MethodID {
			return locs[i].MethodID < locs[j].MethodID
		}
		return locs[i].Block < locs[j].Block
	})
	return locs
}

// CompareResult is the cmd/paper "compare" section: all three backends on
// the running example from one execution pass.
type CompareResult struct {
	// SortModel / SortCoeff is the algorithmic profiler's fitted cost
	// function for the sort algorithm.
	SortModel string
	SortCoeff float64
	// HottestExclusive is the CCT baseline's hottest method.
	HottestExclusive string
	// TopBlock is the basic-block baseline's hottest block.
	TopBlock string
	// Passes is how many workload executions the comparison used (1; the
	// comparison before the shared event stream needed 3).
	Passes int
}

// Compare runs the backend comparison: one execution pass feeds all three
// backends.
func Compare(sw Sweep) (*CompareResult, error) {
	src := workloads.RunningExample(workloads.Random, sw.MaxSize, sw.Step, sw.Reps)
	p, err := algoprof.Run(src, algoprof.Config{Seed: sw.Seed, Backends: true})
	if err != nil {
		return nil, err
	}
	res := &CompareResult{
		HottestExclusive: HottestExclusive(p.Baselines[0]),
		TopBlock:         TopBlock(p.Baselines[0]),
		Passes:           1,
	}
	if alg := p.Find("List.sort/loop1"); alg != nil {
		for _, cf := range alg.CostFunctions {
			if strings.Contains(cf.InputLabel, "Node") {
				res.SortModel, res.SortCoeff = cf.Model, cf.Coeff
			}
		}
	}
	if res.SortModel == "" {
		return nil, fmt.Errorf("compare: sort cost function not found")
	}
	return res, nil
}

// BackendsFingerprint renders every backend output of a Config.Backends
// run into one string for byte-identity comparison: the profile, then
// each thread's CCT, basic-block counts and instruction count, with a
// spawned thread's section headed by its id.
func BackendsFingerprint(p *algoprof.Profile) string {
	var sb strings.Builder
	sb.WriteString(profileFingerprint(p))
	for _, b := range p.Baselines {
		if b.Thread != 0 {
			fmt.Fprintf(&sb, "thread %d\n", b.Thread)
		}
		sb.WriteString(cct.Render(b.CCT, b.Program))
		sb.WriteByte('\n')
		for _, l := range blockOrder(b.Blocks) {
			fmt.Fprintf(&sb, "%d.%d=%d\n", l.MethodID, l.Block, b.Blocks.Counts[l])
		}
		fmt.Fprintf(&sb, "instrs=%d\n", b.Instructions)
	}
	return sb.String()
}

// profileFingerprint renders a profile's tree and JSON, each followed by a
// newline, for byte-identity comparison.
func profileFingerprint(p *algoprof.Profile) string {
	js, _ := p.JSON()
	return p.Tree() + "\n" + string(js) + "\n"
}

// ---------------------------------------------------------------------------
// Pipeline benchmark (BENCH_pipeline.json).

// PipelinePoint measures the event-transport configurations at one
// workload size.
type PipelinePoint struct {
	Size int `json:"size"`
	// Passes is the number of read-only sortedness scans per constructed
	// list (the sort-once-query-many workload shape); scaled with Size so
	// scan work and sort work keep a fixed ratio across the sweep.
	Passes int `json:"scan_passes"`
	// ThreePassNs runs the workload three times, once per backend, each
	// with its backend wired directly to the VM — the comparison cost
	// without a shared event stream.
	ThreePassNs benchfile.Summary `json:"three_pass_ns"`
	// SyncFanoutNs is one pass with inline fan-out to all three backends.
	SyncFanoutNs benchfile.Summary `json:"sync_fanout_ns"`
	// SoloSyncNs profiles with the core wired directly to the VM as the
	// only listener.
	SoloSyncNs benchfile.Summary `json:"solo_sync_ns"`
	// Speedup is the single-pass multi-listener gain over three passes:
	// the per-round three-pass over fan-out time.
	Speedup benchfile.Summary `json:"speedup_vs_three_pass"`
	// Identical reports that the fan-out's core profile is byte-identical
	// to the dedicated run's in every round.
	Identical bool `json:"identical"`
}

// pipelineRounds is how many interleaved rounds each PipelineBench point
// times.
const pipelineRounds = 7

// PipelineBench measures the transport configurations across workload
// sizes, timing all three legs interleaved over pipelineRounds rounds per
// point.
//
// The workload is the sort-once-query-many shape (RunningExampleScanned):
// each constructed list is sorted once and then scanned 8*size times. This
// is the regime the shared stream targets — the dedicated CCT and
// basic-block baseline passes each re-execute the whole scan phase, so the
// single-pass fan-out saves two full re-executions; the write-heavy
// regime, where the core's snapshot traversals dominate every
// configuration, is covered by the overhead sweep (BENCH_overhead.json).
func PipelineBench(sizes []int, seed uint64, now func() int64) ([]PipelinePoint, error) {
	var out []PipelinePoint
	for _, size := range sizes {
		passes := 8 * size
		src := workloads.RunningExampleScanned(workloads.Random, size+1, max(size, 1), 2, passes)
		prog, err := compiler.CompileSource(src)
		if err != nil {
			return nil, err
		}
		identical := true
		var dedicated, fan *algoprof.Profile
		sameProfile := func() error {
			identical = identical && profileFingerprint(fan) == profileFingerprint(dedicated)
			return nil
		}
		r, err := timeLegs(pipelineRounds, now, sameProfile,
			// Three separate direct-wired passes (core, cct, bb).
			leg{"three-pass", func() (err error) {
				if dedicated, err = algoprof.RunProgram(prog, algoprof.Config{Seed: seed}); err != nil {
					return err
				}
				if err := cctPass(src, seed); err != nil {
					return err
				}
				return bbPass(src, seed)
			}},
			leg{"fan-out", func() (err error) {
				fan, err = algoprof.RunProgram(prog, algoprof.Config{Seed: seed, Backends: true})
				return err
			}},
			leg{"solo", func() error {
				_, err := algoprof.RunProgram(prog, algoprof.Config{Seed: seed})
				return err
			}},
		)
		if err != nil {
			return nil, err
		}
		out = append(out, PipelinePoint{
			Size:         size,
			Passes:       passes,
			ThreePassNs:  r.ns("three-pass"),
			SyncFanoutNs: r.ns("fan-out"),
			SoloSyncNs:   r.ns("solo"),
			Speedup:      r.ratio("three-pass", "fan-out"),
			Identical:    identical,
		})
	}
	return out, nil
}

// cctPass is a dedicated CCT baseline pass (the Figure 2 setup).
func cctPass(src string, seed uint64) error {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return err
	}
	_, _, err = cct.Baseline(prog, seed, nil)
	return err
}

// bbPass is a dedicated basic-block baseline pass (the Goldsmith setup).
func bbPass(src string, seed uint64) error {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return err
	}
	p := bbprof.New(prog)
	machine := vm.New(prog, vm.Config{InstrHook: p.Hook, Seed: seed})
	if err := machine.Run(); err != nil {
		return err
	}
	p.Snapshot(0)
	return nil
}
