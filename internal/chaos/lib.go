package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"syscall"
	"time"

	"algoprof"
	"algoprof/internal/faultinject"
	"algoprof/internal/trace"
	"algoprof/internal/trace/store"
	"algoprof/internal/verify"
	"algoprof/internal/vm"
	"algoprof/internal/workloads"
)

// libCorpus is the Lib workload set: the paper's running example, the
// sort comparison (recursion + folding), the growth workload
// (journal-heavy), the Listing 4 program, and the threaded workload (two
// spawned VM threads, each recording its own trace file). Watchdog
// schedules leave out the threaded entry, which must stay last: a shared
// watchdog halts each thread at a scheduling-dependent point, so threaded
// degradation is legitimately nondeterministic and the
// degraded-determinism gate would misfire.
func libCorpus(sc *schedule) []workload {
	cases := []workload{
		{"running", workloads.RunningExample(workloads.Random, 48, 8, 1)},
		{"sorts", workloads.MergeVsInsertion(32, 8, 1)},
		{"growth", workloads.ArrayListGrow(false, 48, 8, 1)},
		{"listing4", workloads.Listing4(24)},
		{"threaded", workloads.Threaded(2, 16)},
	}
	if sc.watchdogPolls > 0 {
		cases = cases[:len(cases)-1]
	}
	return cases
}

// libFamilies: transient faults that retries absorb, watchdog interrupts
// that degrade, resource exhaustion that fails typed, and silent
// corruption the replay CRC (or verifier) must catch.
var libFamilies = [4]family{
	func(sc *schedule, draw func(uint64) uint64) {
		// Clean or transient: either no faults at all, or a bounded burst
		// of retryable faults the store's retry policy must absorb.
		switch draw(3) {
		case 0: // clean
		case 1:
			sc.fault("fsync-transient", faultinject.PointSync, faultinject.PointConfig{
				Prob: 1, MaxFires: 1 + int(draw(2)), Class: faultinject.Transient, Errno: syscall.EINTR,
			})
		default:
			sc.fault("short-write", faultinject.PointShortWrite, faultinject.PointConfig{
				Prob: 1, MaxFires: 1, Class: faultinject.Transient,
			})
		}
	},
	func(sc *schedule, draw func(uint64) uint64) {
		// Watchdog interrupt mid-run: the VM must halt cleanly and the run
		// must degrade deterministically.
		sc.names = append(sc.names, "watchdog")
		sc.watchdogPolls = 1 + int(draw(4))
	},
	func(sc *schedule, draw func(uint64) uint64) {
		// Resource exhaustion: the run must fail with a typed Resource
		// error (or complete untouched when the low-probability point
		// never fires).
		if draw(2) == 0 {
			sc.fault("trace-enospc", faultinject.PointWrite, faultinject.PointConfig{
				Prob: 0.05, MaxFires: 1, Class: faultinject.Resource,
				Errno: syscall.ENOSPC, PathSuffix: store.TraceName,
			})
		} else {
			sc.fault("rename-emfile", faultinject.PointRename, faultinject.PointConfig{
				Prob: 1, MaxFires: 1, Class: faultinject.Resource, Errno: syscall.EMFILE,
			})
		}
	},
	traceBitFlip,
}

// traceBitFlip flips one bit of a stored trace with no error reported.
// The live profile is computed in memory and may be fine; the replay
// (Lib) or the audit (Service) has to flag the artifact by its CRC or,
// past it, the invariant verifier, never replay it to a
// plausible-but-wrong profile. Small workloads flush only a handful of
// frames, so the per-write probability is high enough that most schedules
// land a flip somewhere in the file.
func traceBitFlip(sc *schedule, _ func(uint64) uint64) {
	sc.fault("trace-bitflip", faultinject.PointBitFlip, faultinject.PointConfig{
		Prob: 0.4, MaxFires: 1, PathSuffix: store.TraceName, Class: faultinject.Corruption,
	})
}

// libRetry is the store retry policy Lib runs use: the default shape
// with sleeps elided so sweeps stay fast.
var libRetry = faultinject.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Sleep: func(time.Duration) {}}

// recordFaulted records one run under the schedule's fault plan into dir
// and returns the stored run (verifier always on).
func recordFaulted(dir string, tr *trial) (*store.Run, error) {
	s, err := store.OpenFS(dir, tr.sc.plan(tr.seed).FS(faultinject.OS()))
	if err != nil {
		return nil, err
	}
	s.SetRetry(libRetry)
	s.SetLogf(nil)
	cfg := algoprof.Config{Seed: tr.seed, Verify: true}
	if tr.sc.watchdogPolls > 0 {
		polls, limit := 0, tr.sc.watchdogPolls
		cfg.Watchdog = func() error {
			polls++
			if polls >= limit {
				return &vm.Halt{Reason: "fault:watchdog"}
			}
			return nil
		}
	}
	return s.Record("run", tr.w.src, "chaos", cfg, trace.WriterOptions{})
}

// runLib records the schedule, replays what landed on disk under a clean
// filesystem, and checks the result against the fault-free baseline.
func runLib(tr *trial) {
	rec, err := recordFaulted(tr.dir, tr)
	if err != nil {
		// The run failed outright: the error must be typed, and a verifier
		// error here means faults on the disk path corrupted the in-memory
		// stream — a pipeline bug, not an acceptable failure.
		var verr *verify.Error
		if errors.As(err, &verr) {
			tr.violation("verifier violations during faulted run: %v", verr)
		}
		tr.fail(err, "failure")
		return
	}

	// The record completed; whatever landed on disk must now replay — under
	// a clean filesystem — to the recorded profile, or fail typed (silent
	// on-disk corruption caught by the CRC or the verifier).
	clean, err := store.Open(tr.dir)
	if err != nil {
		tr.violation("reopen store: %v", err)
		return
	}
	clean.SetLogf(nil)
	replayed, err := clean.Replay("run")
	if err != nil {
		tr.fail(err, "replay failure")
		return
	}
	if replayed.Profile.Degraded && !rec.Manifest.Degraded {
		// The live run completed clean but its stored trace only replays
		// through the reader's truncation recovery — on-disk damage (e.g. a
		// bit flip in the index region) that the reader detected and
		// declared. Detected corruption, not a silent wrong profile.
		tr.res.Outcome = Failed
		tr.res.Class = faultinject.Corruption
		tr.res.Err = fmt.Sprintf("stored trace damaged on disk; replay recovered a declared-degraded prefix (%s)",
			strings.Join(replayed.Profile.DegradedReasons, ", "))
		return
	}
	if !algosEqual(rec.Profile, replayed.Profile) {
		tr.violation("stored trace replays to a different profile than the live run")
	}

	if rec.Manifest.Degraded {
		tr.res.Outcome = Degraded
		// Degradation must be deterministic: the same seed, rerun from
		// scratch, must produce the same degraded profile.
		rec2, err2 := recordFaulted(tr.dir+"-replay", tr)
		switch {
		case err2 != nil:
			tr.violation("degraded run rerun failed: %v", err2)
		case !algosEqual(rec.Profile, rec2.Profile):
			tr.violation("degraded run is nondeterministic: rerun with the same seed differs")
		case !slices.Equal(rec.Manifest.DegradedReasons, rec2.Manifest.DegradedReasons):
			tr.violation("degraded run is nondeterministic: reasons %v vs %v",
				rec.Manifest.DegradedReasons, rec2.Manifest.DegradedReasons)
		}
		return
	}

	// A non-degraded completion must match the fault-free baseline exactly:
	// absorbed transient faults may cost retries, never fidelity.
	base, err := algoprof.Run(tr.w.src, algoprof.Config{Seed: tr.seed})
	if err != nil {
		tr.violation("baseline run failed: %v", err)
		return
	}
	if !algosEqual(base, rec.Profile) {
		tr.violation("profile under absorbed faults differs from fault-free baseline")
	}
	tr.res.Outcome = OK
}

// algosEqual compares two profiles' fitted results (the portable artifact)
// by JSON identity. Degraded-reason lists differ legitimately between a
// live run and its replay, so they are compared separately where required.
func algosEqual(a, b *algoprof.Profile) bool {
	aj, _ := json.Marshal(a.Algorithms)
	bj, _ := json.Marshal(b.Algorithms)
	return string(aj) == string(bj)
}
