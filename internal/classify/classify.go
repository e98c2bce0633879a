// Package classify assigns each algorithm the paper's §2.8 categories:
// per input, one of Construction / Modification / Traversal (mutually
// exclusive, in that priority order); per algorithm, whether it consumes
// external input or produces external output; and Data-structure-less when
// it has no inputs at all.
package classify

import (
	"fmt"
	"sort"
	"strings"

	"algoprof/internal/core"
	"algoprof/internal/group"
)

// Class is the per-input category of an algorithm.
type Class int

// Per-input classes, in priority order.
const (
	Traversal Class = iota
	Modification
	Construction
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Construction:
		return "Construction"
	case Modification:
		return "Modification"
	}
	return "Traversal"
}

// AlgorithmClass is the classification of one algorithm.
type AlgorithmClass struct {
	// PerInput maps each canonical input id to its class.
	PerInput map[int]Class
	// DoesInput reports external input reads.
	DoesInput bool
	// DoesOutput reports external output writes.
	DoesOutput bool
}

// DataStructureLess reports whether the algorithm touches no structures
// and no external I/O.
func (ac *AlgorithmClass) DataStructureLess() bool {
	return len(ac.PerInput) == 0 && !ac.DoesInput && !ac.DoesOutput
}

// Describe renders the classification like the paper's repetition tree
// annotations, e.g. "Modification of a Node-based recursive structure".
func (ac *AlgorithmClass) Describe(labelOf func(inputID int) string) string {
	if ac.DataStructureLess() {
		return "Data-structure-less algorithm"
	}
	// Aggregate per (class, label): a harness run profiles many instances
	// of the same input kind.
	counts := map[string]int{}
	var order []string
	ids := make([]int, 0, len(ac.PerInput))
	for id := range ac.PerInput {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		key := fmt.Sprintf("%s of a %s", ac.PerInput[id], labelOf(id))
		if counts[key] == 0 {
			order = append(order, key)
		}
		counts[key]++
	}
	var parts []string
	for _, key := range order {
		if counts[key] > 1 {
			parts = append(parts, fmt.Sprintf("%s (%d instances)", key, counts[key]))
		} else {
			parts = append(parts, key)
		}
	}
	if ac.DoesInput {
		parts = append(parts, "Input algorithm")
	}
	if ac.DoesOutput {
		parts = append(parts, "Output algorithm")
	}
	return strings.Join(parts, "; ")
}

// Classify computes the classification of every algorithm in res.
func Classify(p *core.Profiler, res *group.Result) map[*group.Algorithm]*AlgorithmClass {
	reg := p.Registry()

	// Which (algorithm, input) pairs saw allocations: an entity allocated
	// by a member node and now owned by input X marks X as constructed by
	// that algorithm.
	constructed := map[*group.Algorithm]map[int]bool{}
	p.EachAllocation(func(entityID uint64, node *core.Node) {
		alg := res.AlgorithmOf[node]
		if alg == nil {
			return
		}
		input := reg.InputOfID(entityID)
		if input < 0 {
			return
		}
		if constructed[alg] == nil {
			constructed[alg] = map[int]bool{}
		}
		constructed[alg][input] = true
	})

	out := map[*group.Algorithm]*AlgorithmClass{}
	for _, alg := range res.Algorithms {
		ac := &AlgorithmClass{PerInput: map[int]Class{}}
		reads := map[int]bool{}
		writes := map[int]bool{}
		for _, pt := range alg.Combined {
			for k, v := range pt.Costs {
				if v == 0 {
					continue
				}
				switch k.Op {
				case core.OpGet, core.OpArrLoad:
					if k.Input != core.NoInput {
						reads[k.Input] = true
					}
				case core.OpPut, core.OpArrStore:
					if k.Input != core.NoInput {
						writes[k.Input] = true
					}
				case core.OpIn:
					ac.DoesInput = true
				case core.OpOut:
					ac.DoesOutput = true
				}
			}
		}
		for _, id := range alg.Inputs {
			switch {
			case constructed[alg][id]:
				ac.PerInput[id] = Construction
			case writes[id]:
				ac.PerInput[id] = Modification
			case reads[id]:
				ac.PerInput[id] = Traversal
			}
		}
		out[alg] = ac
	}
	return out
}
