// Package focus combines the traditional CCT hotness baseline with
// algorithmic profiling, the workflow §3.5 of the AlgoProf paper describes
// for realistic applications: first find the hot regions with a cheap
// hotness profile, then read the algorithmic profile for exactly those
// regions to learn *why* they are hot and how they scale.
package focus

import (
	"sort"
	"strings"

	"algoprof"
	"algoprof/internal/cct"
	"algoprof/internal/mj/compiler"
)

// HotRegion is one hot method with the algorithms rooted inside it.
type HotRegion struct {
	// Method is the hot method's qualified name.
	Method string
	// ExclusiveCost is the method's exclusive instruction count from the
	// CCT baseline.
	ExclusiveCost uint64
	// Calls is the method's total call count.
	Calls int64
	// Algorithms are the algorithmic-profile entries rooted in the
	// method, most expensive first.
	Algorithms []algoprof.Algorithm
}

// Result is a focused profile.
type Result struct {
	// Regions are the topK hottest methods with their algorithms.
	Regions []HotRegion
	// Profile is the full algorithmic profile, for drill-down.
	Profile *algoprof.Profile
}

// Run profiles src twice — once under the CCT baseline to rank methods by
// exclusive cost, once under the algorithmic profiler — and joins the two
// views. Both runs use the same seed, so they observe the same execution.
func Run(src string, cfg algoprof.Config, topK int) (*Result, error) {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, err
	}

	// Pass 1: CCT hotness.
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	hot, hotProg, err := cct.Baseline(prog, seed, cfg.Input)
	if err != nil {
		return nil, err
	}

	// Pass 2: algorithmic profile (optimized plan), same seed.
	profile, err := algoprof.RunProgram(prog, cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{Profile: profile}
	for _, h := range hot.Flat() {
		if len(res.Regions) >= topK {
			break
		}
		method := hotProg.Sem.MethodByID(h.MethodID).QualifiedName()
		region := HotRegion{
			Method:        method,
			ExclusiveCost: h.Exclusive,
			Calls:         h.Calls,
		}
		for _, alg := range profile.Algorithms {
			if strings.HasPrefix(alg.Name, method+"/") {
				region.Algorithms = append(region.Algorithms, alg)
			}
		}
		sort.SliceStable(region.Algorithms, func(i, j int) bool {
			return region.Algorithms[i].TotalSteps > region.Algorithms[j].TotalSteps
		})
		res.Regions = append(res.Regions, region)
	}
	return res, nil
}
