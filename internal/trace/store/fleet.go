// Fleet diff: one baseline run's trace compared against every other run in
// the store, one comparison per core at a time. The per-pair work
// is trace.DiffTraceFiles, which compares the two trace footers' Merkle
// leaves, so each comparison reads two footers — or, when the manifests
// already carry matching Merkle roots, nothing at all.
package store

import (
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"algoprof/internal/trace"
)

// FleetEntry is one run's outcome in a fleet diff.
type FleetEntry struct {
	// Run names the compared run.
	Run string `json:"run"`
	// Root is the run's trace Merkle root (hex; empty for v1 traces).
	Root string `json:"root,omitempty"`
	// Diff is the frame-level trace diff against the baseline; nil when the
	// comparison failed (see Err) or was skipped via matching manifest
	// roots (then Identical is set directly).
	Diff *trace.TraceDiff `json:"diff,omitempty"`
	// Identical mirrors Diff.Identical, and is also set when matching
	// manifest roots proved identity without touching the trace files.
	Identical bool `json:"identical"`
	// SkippedByRoot marks entries proven identical from manifests alone.
	SkippedByRoot bool `json:"skipped_by_root,omitempty"`
	// Err is the failure, when the run could not be compared (missing or
	// truncated trace, corrupt footer).
	Err string `json:"err,omitempty"`
}

// FleetReport is a whole fleet diff: the baseline, every comparison, and
// the aggregate cost.
type FleetReport struct {
	Baseline     string       `json:"baseline"`
	BaselineRoot string       `json:"baseline_root,omitempty"`
	Entries      []FleetEntry `json:"entries"`
	// Identical, Changed, Failed partition the entries.
	Identical int `json:"identical"`
	Changed   int `json:"changed"`
	Failed    int `json:"failed"`
	// BytesRead sums the file bytes all comparisons read (footers plus any
	// full-scan fallbacks) — the number that shows the Merkle index paying
	// for itself against len(traces) full reads.
	BytesRead int64 `json:"bytes_read"`
}

// FleetDiff compares baseline's trace against every run in runs (all other
// stored runs when runs is empty), on GOMAXPROCS workers. Per-run
// failures are reported in their entries, not returned: one truncated
// trace must not hide the rest of the fleet.
func (s *Store) FleetDiff(baseline string, runs []string) (*FleetReport, error) {
	return s.FleetDiffTenant(baseline, runs, "")
}

// FleetDiffTenant is FleetDiff scoped to one tenant: when runs is empty,
// only stored runs whose manifests name that tenant are compared (the
// empty tenant means no filter). An explicit runs list is taken as given —
// the caller already chose it.
func (s *Store) FleetDiffTenant(baseline string, runs []string, tenant string) (*FleetReport, error) {
	baseDir, err := s.runDir(baseline)
	if err != nil {
		return nil, err
	}
	baseManifest, err := s.Load(baseline)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		all, err := s.ListTenant(tenant)
		if err != nil {
			return nil, err
		}
		for _, name := range all {
			if name != baseline {
				runs = append(runs, name)
			}
		}
	}
	sort.Strings(runs)
	basePath := filepath.Join(baseDir, traceFile)
	baseRoot := baseManifest.Manifest.TraceMerkleRoot
	report := &FleetReport{
		Baseline:     baseline,
		BaselineRoot: baseRoot,
		Entries:      make([]FleetEntry, len(runs)),
	}
	// Each comparison writes only its own entry, so the report's order is
	// the sorted run order whatever the scheduling.
	next := make(chan int)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(runs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				report.Entries[i] = s.fleetEntry(basePath, baseRoot, runs[i])
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range report.Entries {
		e := &report.Entries[i]
		switch {
		case e.Err != "":
			report.Failed++
		case e.Identical:
			report.Identical++
		default:
			report.Changed++
		}
		if e.Diff != nil {
			report.BytesRead += e.Diff.BytesReadOld + e.Diff.BytesReadNew
		}
	}
	return report, nil
}

// fleetEntry compares one run's trace against the baseline's, or proves
// it identical from matching manifest roots without reading either trace.
func (s *Store) fleetEntry(basePath, baseRoot, run string) FleetEntry {
	e := FleetEntry{Run: run}
	dir, err := s.runDir(run)
	if err != nil {
		e.Err = err.Error()
		return e
	}
	if m, err := s.Load(run); err == nil {
		e.Root = m.Manifest.TraceMerkleRoot
	}
	if baseRoot != "" && e.Root == baseRoot {
		e.Identical = true
		e.SkippedByRoot = true
		return e
	}
	d, err := trace.DiffTraceFiles(basePath, filepath.Join(dir, traceFile))
	if err != nil {
		e.Err = err.Error()
		return e
	}
	e.Diff = d
	e.Identical = d.Identical
	return e
}
