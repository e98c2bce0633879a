// Package benchfile is the one shape of every committed BENCH_*.json
// perf baseline: a provenance header, timings reduced to their median and
// quartiles, and one writer. cmd/paper's bench, algoprofd's loadgen and
// algoprofd's distbench all write through it, so the five files carry the
// same header keys and the same summary of a sample series.
package benchfile

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"algoprof/internal/trace"
)

// Header is the provenance every BENCH_*.json file starts with: which
// build produced it, and on how many cores.
type Header struct {
	// Commit is the VCS revision the binary was built from ("unknown"
	// when the build carries none, as `go run` and `go test` binaries
	// do); VCSModified reports uncommitted changes in that build's tree.
	Commit             string `json:"commit"`
	VCSModified        bool   `json:"vcs_modified"`
	GoVersion          string `json:"go_version"`
	GOMAXPROCS         int    `json:"gomaxprocs"`
	NProc              int    `json:"nproc"`
	TraceFormatVersion int    `json:"trace_format_version"`
	GeneratedUnix      int64  `json:"generated_unix"`
}

// NewHeader describes the running binary and machine now.
func NewHeader() Header {
	h := Header{
		Commit:             "unknown",
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NProc:              runtime.NumCPU(),
		TraceFormatVersion: trace.Version,
		GeneratedUnix:      time.Now().Unix(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value == "true"
			}
		}
	}
	return h
}

func (h *Header) stamp() { *h = NewHeader() }

// Report is any report type that embeds a Header.
type Report interface{ stamp() }

// Write stamps rep's header and writes rep as indented JSON to path, or
// to standard output when path is "-".
func Write(path string, rep Report) error {
	rep.stamp()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Summary is a sample series reduced to its median and quartiles, with
// the tail percentiles that have at least ten samples beyond them: P95
// from 200 samples on and P99 from 1 000 on. With fewer, a percentile is
// no tail, and it is left out.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	P95    float64 `json:"p95,omitempty"`
	P99    float64 `json:"p99,omitempty"`
}

// Summarize reduces xs, which it leaves unchanged.
func Summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := Summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	if len(s) >= 200 {
		sum.P95 = quantile(s, 0.95)
	}
	if len(s) >= 1000 {
		sum.P99 = quantile(s, 0.99)
	}
	return sum
}

// quantile returns the p-quantile (0 < p < 1) of sorted values by linear
// interpolation between order statistics at rank p·(n+1) — the
// "exclusive" method of Python's statistics.quantiles, and perfbench's,
// so quartiles here match the ones a reader computes from the same
// values.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	lo := int(math.Floor(h))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	return sorted[lo-1] + (h-float64(lo))*(sorted[lo]-sorted[lo-1])
}
