package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"algoprof"
	"algoprof/internal/bbprof"
	"algoprof/internal/cct"
	"algoprof/internal/instrument"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/verify"
	"algoprof/internal/vm"
	"algoprof/internal/workloads"
)

// ---------------------------------------------------------------------------
// Single-pass backend comparison: one execution feeds the algorithmic
// profiler, the CCT baseline, and the basic-block baseline through the
// event transport, where comparing backends previously re-ran the workload
// once per listener.

// Backends is the result of one combined execution pass.
type Backends struct {
	// Profile is the algorithmic profile (the core consumed the stream
	// filtered to the optimized plan, exactly as a dedicated run would).
	Profile *algoprof.Profile
	// CCT is the finished calling-context-tree baseline.
	CCT *cct.Profiler
	// BBRun is the basic-block baseline's counts for this run.
	BBRun bbprof.Run
	// Instructions is the executed instruction count.
	Instructions uint64

	ins *instrument.Instrumented
}

// CCTRender renders the CCT against the instrumented program.
func (b *Backends) CCTRender() string { return cct.Render(b.CCT, b.ins.Prog) }

// HottestExclusive is the CCT's hottest method by exclusive cost.
func (b *Backends) HottestExclusive() string {
	flat := b.CCT.Flat()
	if len(flat) == 0 {
		return ""
	}
	return b.ins.Prog.Sem.MethodByID(flat[0].MethodID).QualifiedName()
}

// TopBlock names the hottest basic block by raw execution count.
func (b *Backends) TopBlock() string {
	var best string
	var bestCount int64 = -1
	locs := make([]bbprof.Location, 0, len(b.BBRun.Counts))
	for l := range b.BBRun.Counts {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].MethodID != locs[j].MethodID {
			return locs[i].MethodID < locs[j].MethodID
		}
		return locs[i].Block < locs[j].Block
	})
	for _, l := range locs {
		if c := b.BBRun.Counts[l]; c > bestCount {
			bestCount = c
			best = fmt.Sprintf("%s block %d (%d executions)",
				b.ins.Prog.Sem.MethodByID(l.MethodID).QualifiedName(), l.Block, c)
		}
	}
	return best
}

// RunBackends executes src once and feeds all three backends from the one
// event stream. The VM runs under the union of the consumers' plans and
// the core consumer filters records down to the optimized plan, so its
// profile is identical to a dedicated optimized run.
func RunBackends(src string, seed uint64) (*Backends, error) {
	return runBackends(src, seed, false)
}

// RunBackendsVerified is RunBackends with the online invariant verifier
// riding the same stream as a fourth consumer. Beyond the stream
// well-formedness checks, the verifier cross-checks the backends against
// each other — repetition-tree accounting against the stream's loop/method
// events, and the CCT's call counts against the stream's method entries —
// so a bug that desynchronizes one backend surfaces as a typed
// *verify.Error instead of a silently inconsistent comparison. The
// benchmark paths stay on the unverified RunBackends.
func RunBackendsVerified(src string, seed uint64) (*Backends, error) {
	return runBackends(src, seed, true)
}

func runBackends(src string, seed uint64, verified bool) (*Backends, error) {
	s, err := newBackendSetup(src)
	if err != nil {
		return nil, err
	}
	var chk *verify.Checker
	if verified {
		// The checker taps the raw (union-plan) stream: the loop events it
		// sees are exactly the tree's, and its method-entry counts bound the
		// optimized tree from above while matching the CCT exactly.
		chk = verify.NewChecker()
		s.tp.Add(chk, nil)
	}
	pr := s.tp.Producer()
	// The basic-block counter hooks the VM directly: the per-instruction
	// stream is orders of magnitude denser than the event stream, and no
	// other live consumer wants it.
	machine := vm.New(s.insFull.Prog, vm.Config{
		Listener:  pr,
		Plan:      s.union,
		InstrHook: s.bb.Hook,
		Seed:      seed,
	})
	pr.BindClock(&machine.InstrCount)
	if err := machine.Run(); err != nil {
		return nil, err
	}
	b, err := s.finish(machine.InstrCount)
	if err != nil {
		return nil, err
	}
	if chk != nil {
		chk.Finish(false)
		chk.Add(verify.CheckTree(s.coreProf, false))
		chk.Add(verify.AgreeStream(chk, s.coreProf))
		chk.Add(verify.AgreeCCT(chk, s.cctProf.Flat()))
		if err := chk.Err(); err != nil {
			return nil, err
		}
	}
	return b, nil
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
	b, err := RunBackends(src, sw.Seed)
	if err != nil {
		return nil, err
	}
	res := &CompareResult{
		HottestExclusive: b.HottestExclusive(),
		TopBlock:         b.TopBlock(),
		Passes:           1,
	}
	if alg := b.Profile.Find("List.sort/loop1"); alg != nil {
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

// BackendsFingerprint renders every backend output of a combined run into
// one string for byte-identity comparison.
func BackendsFingerprint(b *Backends) string {
	var sb strings.Builder
	sb.WriteString(profileFingerprint(b.Profile))
	sb.WriteString(b.CCTRender())
	sb.WriteByte('\n')
	locs := make([]bbprof.Location, 0, len(b.BBRun.Counts))
	for l := range b.BBRun.Counts {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].MethodID != locs[j].MethodID {
			return locs[i].MethodID < locs[j].MethodID
		}
		return locs[i].Block < locs[j].Block
	})
	for _, l := range locs {
		fmt.Fprintf(&sb, "%d.%d=%d\n", l.MethodID, l.Block, b.BBRun.Counts[l])
	}
	fmt.Fprintf(&sb, "instrs=%d\n", b.Instructions)
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
	Size int
	// Passes is the number of read-only sortedness scans per constructed
	// list (the sort-once-query-many workload shape); scaled with Size so
	// scan work and sort work keep a fixed ratio across the sweep.
	Passes int
	// ThreePassNs runs the workload three times, once per backend, each
	// with its backend wired directly to the VM — the comparison cost
	// without a shared event stream.
	ThreePassNs int64
	// SyncFanoutNs is one pass with inline fan-out to all three backends.
	SyncFanoutNs int64
	// SoloSyncNs profiles with the core wired directly to the VM as the
	// only listener.
	SoloSyncNs int64
	// SpeedupRatio is the median over rounds of the per-round
	// three-pass/fan-out ratio. Comparing legs of the same round makes
	// the ratio robust to machine-speed drift between rounds, which
	// best-of-N leg times are not.
	SpeedupRatio float64
	// Identical reports that the fan-out's core profile is byte-identical
	// to the dedicated run's in every round.
	Identical bool
}

// Speedup is the single-pass multi-listener gain over three passes: the
// median per-round ratio (see SpeedupRatio).
func (p PipelinePoint) Speedup() float64 { return p.SpeedupRatio }

// PipelineBench measures the transport configurations across workload
// sizes. Per point it runs several interleaved rounds of all three legs;
// the reported leg times are each leg's best round (the floor estimate),
// and the headline speedup is the median per-round ratio, which holds up
// when the machine's speed drifts between rounds.
//
// The workload is the sort-once-query-many shape (RunningExampleScanned):
// each constructed list is sorted once and then scanned 8*size times. This
// is the regime the shared stream targets — the dedicated CCT and
// basic-block baseline passes each re-execute the whole scan phase, so the
// single-pass fan-out saves two full re-executions; the write-heavy
// regime, where the core's snapshot traversals dominate every
// configuration, is covered by the overhead sweep (BENCH_overhead.json).
func PipelineBench(sizes []int, seed uint64, now func() int64) ([]PipelinePoint, error) {
	const rounds = 7
	out := make([]PipelinePoint, len(sizes))
	err := forEachIndex(len(sizes), func(i int) error {
		size := sizes[i]
		passes := 8 * size
		src := workloads.RunningExampleScanned(workloads.Random, size+1, max(size, 1), 2, passes)
		prog, err := compiler.CompileSource(src)
		if err != nil {
			return err
		}
		// leg times one configuration, keeping the per-leg minimum. The
		// forced GC keeps one leg's allocation debt from being collected
		// on a later leg's clock — without it, leg-to-leg ratios swing
		// wildly run to run.
		leg := func(prev *int64, f func() error) (int64, error) {
			runtime.GC()
			t0 := now()
			if err := f(); err != nil {
				return 0, err
			}
			d := now() - t0
			if *prev == 0 || d < *prev {
				*prev = d
			}
			return d, nil
		}
		pt := PipelinePoint{Size: size, Passes: passes, Identical: true}
		ratios := make([]float64, 0, rounds)
		for round := 0; round < rounds; round++ {
			// Leg 1: three separate direct-wired passes (core, cct, bb).
			var dedicated *algoprof.Profile
			threeNs, err := leg(&pt.ThreePassNs, func() error {
				if dedicated, err = algoprof.RunProgram(prog, algoprof.Config{Seed: seed}); err != nil {
					return err
				}
				if err := cctPass(src, seed); err != nil {
					return err
				}
				return bbPass(src, seed)
			})
			if err != nil {
				return err
			}
			var fan *Backends
			fanNs, err := leg(&pt.SyncFanoutNs, func() error {
				fan, err = RunBackends(src, seed)
				return err
			})
			if err != nil {
				return err
			}
			ratios = append(ratios, float64(threeNs)/float64(fanNs))
			if _, err = leg(&pt.SoloSyncNs, func() error {
				_, err := algoprof.RunProgram(prog, algoprof.Config{Seed: seed})
				return err
			}); err != nil {
				return err
			}
			if profileFingerprint(fan.Profile) != profileFingerprint(dedicated) {
				pt.Identical = false
			}
		}
		sort.Float64s(ratios)
		pt.SpeedupRatio = ratios[len(ratios)/2]
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
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
