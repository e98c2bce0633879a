// Package chaos drives seeded fault schedules through one of three targets
// and asserts the robustness contract on the paper's profile: every
// schedule either succeeds with a profile equal to the fault-free
// baseline, degrades deterministically, or fails with an error whose
// faultinject.FaultClass is typed. Anything else — a panic, an
// unclassified error, a silently wrong profile, a lost job — is a harness
// violation, never an acceptable outcome.
//
// The targets are the library's record → replay path (Lib, lib.go), the
// daemon's write path (Service) and distributed dispatch to worker servers
// (Dist, both in daemon.go). Each contributes its corpus, its four fault
// families and its boot and submit code; this file owns the sweep loop,
// the seeded schedule draw, the panic guard and the violation format.
package chaos

import (
	"fmt"
	"path/filepath"
	"strings"

	"algoprof/internal/faultinject"
)

// Config parameterizes one chaos sweep.
type Config struct {
	// Seeds is how many fault schedules to run (default 16). Schedule i
	// uses seed BaseSeed+i; the seed fully determines the workload, the
	// armed fault points, and every fault draw.
	Seeds int
	// BaseSeed offsets the schedule seeds.
	BaseSeed uint64
	// Dir is the scratch directory; each schedule records into its own
	// subdirectory. The caller owns cleanup.
	Dir string
	// Logf, when non-nil, receives one progress line per schedule.
	Logf func(format string, args ...any)
}

// Target names the system a sweep drives faults through.
type Target string

// The three sweep targets.
const (
	// Lib records each schedule through the library under an adversarial
	// filesystem and watchdog, then replays what landed on disk.
	Lib Target = "lib"
	// Service pushes jobs through a daemon with faults on job intake,
	// result persistence and the store underneath.
	Service Target = "service"
	// Dist routes a daemon's jobs to two worker servers and crashes,
	// partitions, slows or corrupts the first.
	Dist Target = "dist"
)

// Outcome is the trichotomy a chaos run must land in.
type Outcome uint8

const (
	// OK: the run completed, the profile equals the fault-free baseline,
	// and the stored run replays to the same profile. Transient faults may
	// have fired and been retried away.
	OK Outcome = iota
	// Degraded: the run completed in degraded mode (e.g. a watchdog halt)
	// — deterministically: the same seed reproduces the same degraded
	// profile, and the stored trace replays to it.
	Degraded
	// Failed: the run (or its replay) failed with a typed-FaultClass
	// error.
	Failed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	}
	return "failed"
}

// Result is one schedule's classified outcome.
type Result struct {
	Seed     uint64
	Workload string
	// Faults names the schedule's armed fault points (plus "watchdog" or
	// "worker-crash", which no injection point models); empty for a clean
	// schedule.
	Faults  []string
	Outcome Outcome
	// Class is the fault class of the typed error for Failed outcomes.
	Class faultinject.FaultClass
	// Err is the failure message for Failed outcomes.
	Err string
}

// Report is a sweep's results plus any contract violations. A sweep with
// violations is a bug in the pipeline (or the harness), regardless of how
// the individual schedules classified.
type Report struct {
	Results    []Result
	Violations []string
}

// Counts tallies the outcome trichotomy.
func (r *Report) Counts() (ok, degraded, failed int) {
	for _, res := range r.Results {
		switch res.Outcome {
		case OK:
			ok++
		case Degraded:
			degraded++
		default:
			failed++
		}
	}
	return
}

// Render formats the report for terminals: one line per schedule, then the
// tally and every violation.
func (r *Report) Render() string {
	var sb strings.Builder
	for _, res := range r.Results {
		faults := strings.Join(res.Faults, ",")
		if faults == "" {
			faults = "none"
		}
		fmt.Fprintf(&sb, "seed %-4d %-10s faults=%-28s %s", res.Seed, res.Workload, faults, res.Outcome)
		if res.Outcome == Failed {
			fmt.Fprintf(&sb, " [%s] %s", res.Class, res.Err)
		}
		sb.WriteByte('\n')
	}
	ok, degraded, failed := r.Counts()
	fmt.Fprintf(&sb, "chaos: %d schedules: %d ok, %d degraded, %d failed (typed), %d violations\n",
		len(r.Results), ok, degraded, failed, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "VIOLATION: %s\n", v)
	}
	return sb.String()
}

// workload is one corpus entry.
type workload struct{ name, src string }

// family adds one fault family's faults to a schedule, drawing its
// parameters from draw.
type family func(sc *schedule, draw func(n uint64) uint64)

// target is what one system contributes to the sweep.
type target struct {
	// corpus lists the workloads a schedule may run; seed/4 picks one.
	corpus func(sc *schedule) []workload
	// families are the four fault families; seed%4 picks one.
	families [4]family
	// run executes one schedule against the system and classifies it.
	run func(tr *trial)
}

var targets = map[Target]target{
	Lib:     {corpus: libCorpus, families: libFamilies, run: runLib},
	Service: {corpus: daemonCorpus, families: serviceFamilies, run: runService},
	Dist:    {corpus: daemonCorpus, families: distFamilies, run: runDist},
}

// Run sweeps cfg.Seeds schedules through target t. The returned error
// covers only harness setup; per-schedule failures land in the report.
func Run(t Target, cfg Config) (*Report, error) {
	tg, ok := targets[t]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown target %q", t)
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 16
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rep := &Report{}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.BaseSeed + uint64(i)
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("%s-seed-%d", t, seed))
		res := tg.runOne(seed, dir, rep)
		rep.Results = append(rep.Results, res)
		cfg.Logf("chaos %s: seed %d %s (%s): %s", t, seed, res.Workload, strings.Join(res.Faults, ","), res.Outcome)
	}
	return rep, nil
}

// runOne draws seed's schedule and workload, runs it in dir, and
// classifies it. Panics become violations.
func (tg target) runOne(seed uint64, dir string, rep *Report) (res Result) {
	sc := newSchedule(seed, tg.families)
	cases := tg.corpus(&sc)
	w := cases[(seed/4)%uint64(len(cases))]
	res = Result{Seed: seed, Workload: w.name, Faults: sc.names}
	tr := &trial{seed: seed, dir: dir, w: w, sc: sc, res: &res, rep: rep}
	defer func() {
		if r := recover(); r != nil {
			tr.violation("panic: %v", r)
			res.Outcome = Failed
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	tg.run(tr)
	return res
}

// schedule is one seed's fault plan: the injection points to arm, plus
// the faults no injection point models.
type schedule struct {
	names  []string
	points []armed
	// watchdogPolls > 0 halts a Lib run at that watchdog poll.
	watchdogPolls int
	// crash kills Dist worker 1 mid-batch; shortLease runs Dist leases at
	// 50ms instead of 1s.
	crash, shortLease bool
}

// armed is one injection point a schedule arms.
type armed struct {
	point string
	cfg   faultinject.PointConfig
}

// fault arms point under cfg and reports it as name.
func (sc *schedule) fault(name, point string, cfg faultinject.PointConfig) {
	sc.names = append(sc.names, name)
	sc.points = append(sc.points, armed{point, cfg})
}

// plan returns a fresh plan for seed with the schedule's points armed.
// Points keep fire counts, so every faulted run needs its own plan.
func (sc *schedule) plan(seed uint64) *faultinject.Plan {
	p := faultinject.NewPlan(seed)
	for _, a := range sc.points {
		p.Arm(a.point, a.cfg)
	}
	return p
}

// newSchedule derives a fault schedule from the seed alone: seed%4 picks
// the family, which draws its parameters from a splitmix64 stream seeded
// by the seed. Cycling the families makes a modest sweep exercise every
// outcome class.
func newSchedule(seed uint64, families [4]family) schedule {
	mix := seed*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	draw := func(n uint64) uint64 {
		mix += 0x9e3779b97f4a7c15
		z := mix
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return (z ^ (z >> 31)) % n
	}
	var sc schedule
	families[seed%4](&sc, draw)
	return sc
}

// trial is one schedule being run and classified.
type trial struct {
	seed uint64
	// dir is the schedule's own scratch directory.
	dir string
	w   workload
	sc  schedule
	res *Result
	rep *Report
}

// violation records a contract violation against the schedule.
func (tr *trial) violation(format string, args ...any) {
	tr.rep.Violations = append(tr.rep.Violations,
		fmt.Sprintf("seed %d (%s): %s", tr.seed, tr.w.name, fmt.Sprintf(format, args...)))
}

// fail classifies the schedule as Failed with err; an untyped err is also
// a violation, reported as what.
func (tr *trial) fail(err error, what string) {
	tr.res.Outcome = Failed
	tr.res.Class = faultinject.ClassOf(err)
	tr.res.Err = err.Error()
	if tr.res.Class == faultinject.Unknown {
		tr.violation("untyped %s: %v", what, err)
	}
}
