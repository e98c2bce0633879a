package main

import (
	"algoprof"
	"algoprof/internal/workloads"
)

// label is one expectation the paper states about a program's profile:
// the algorithm rooted at alg has a cost function of the given growth.
type label struct{ alg, model string }

// program is one MJ program of a workload's mix. The profiler receives
// only the source and the config; everything else is the benchmark's.
type program struct {
	name string
	src  string
	cfg  algoprof.Config
	// labels are the paper's complexity claims for this program.
	labels []label
	// threadPrefixes name the per-thread algorithm prefixes the merged
	// profile must carry.
	threadPrefixes []string
}

// derive maps the benchmark seed and a stream index to a program seed
// (splitmix64), so every program of a mix draws its own values.
func derive(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return z
}

// scanMix is the read-heavy mix: lists sorted once and scanned many times,
// so repeated observations of unchanged structures hit the snapshot memo.
func scanMix(seed uint64) []program {
	return []program{
		{
			name: "running-scanned",
			src:  workloads.RunningExampleScanned(workloads.Random, 112, 8, 2, 24),
			cfg:  algoprof.Config{Seed: derive(seed, 0)},
			// Figure 1a: the insertion sort is quadratic; the sortedness
			// scan is linear.
			labels: []label{{"List.sort/loop1", "n^2"}, {"List.isSorted/loop1", "n"}},
		},
		{
			name: "merge-vs-insertion",
			src:  workloads.MergeVsInsertion(80, 8, 2),
			cfg:  algoprof.Config{Seed: derive(seed, 1)},
			// Merge sort is n log n. (The insertion sort's quadratic label
			// is checked on the running example: at these sizes its fit
			// misses for about one seed in 400.)
			labels: []label{{"MSort.sort/recursion", "n log n"}},
		},
		{
			name:           "threaded",
			src:            workloads.Threaded(2, 64),
			cfg:            algoprof.Config{Seed: derive(seed, 2)},
			threadPrefixes: []string{"t1:", "t2:"},
		},
	}
}

// recordMix is the read-heavy mix cut to what a record-replay pass can
// repeat a hundred times in a run (recording costs several times a plain
// profile): the scanned running example, and the threaded program, so
// both single- and per-thread traces are recorded. At this size a random
// list's insertion-sort fit is not stable across seeds, so the lists are
// built in reverse order — Figure 1(c), quadratic for every seed.
func recordMix(seed uint64) []program {
	progs := scanMix(seed)
	progs[0].src = workloads.RunningExampleScanned(workloads.Reversed, 64, 8, 2, 2)
	progs[2].src = workloads.Threaded(2, 32)
	return []program{progs[0], progs[2]}
}

// buildMix is the write-heavy mix: growing arrays and freshly built
// immutable lists, so nearly every observation follows a write and the
// snapshot memo is bypassed.
func buildMix(seed uint64) []program {
	return []program{
		{
			name: "arraylist-naive",
			src:  workloads.ArrayListGrow(true, 120, 8, 2),
			cfg:  algoprof.Config{Seed: derive(seed, 3)},
			// Figures 4 and 5: growing by one element is quadratic.
			labels: []label{{"Main.testForSize/loop1", "n^2"}},
		},
		{
			name: "arraylist-ideal",
			src:  workloads.ArrayListGrow(false, 120, 8, 2),
			cfg:  algoprof.Config{Seed: derive(seed, 4)},
			// Doubling the capacity is linear.
			labels: []label{{"Main.testForSize/loop1", "n"}},
		},
		{
			name: "functional-sort",
			src:  workloads.FunctionalSort(workloads.Random, 84, 6, 2),
			cfg:  algoprof.Config{Seed: derive(seed, 5)},
		},
	}
}

// daemonProgram is the small job every daemon submission profiles. Its
// three list sizes are too few for a stable fit, so it carries no labels:
// daemon jobs are checked byte for byte against the library instead.
var daemonProgram = program{
	name: "daemon-job",
	src:  workloads.MergeVsInsertion(24, 8, 1),
}
