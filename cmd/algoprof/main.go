// Command algoprof runs an MJ program under the algorithmic profiler and
// prints the repetition tree with algorithm annotations and fitted cost
// functions (the paper's Figure 3 view), optionally with scatter plots.
//
// Usage:
//
//	algoprof [-seed N] [-unique] [-eager] [-plot ALGO] prog.mj
//	algoprof record [-store DIR] [-name NAME] [-workload LABEL] [profiling flags] prog.mj
//	algoprof replay [-store DIR] [-json] NAME
//	algoprof diff   [-store DIR] OLD NEW
//	algoprof fleetdiff [-store DIR] [-json] [-tenant T] BASELINE [RUN...]
//	algoprof runs   [-store DIR] [-tenant T]
//	algoprof chaos  [-target lib|service|dist] [-seeds N] [-base-seed N] [-dir DIR] [-v]
//	algoprof verify DIR
//	algoprof verify -range LO:HI TRACE
//
// record captures the run's full event stream to a trace store; replay
// rebuilds the identical profile offline from the stored trace (no VM
// execution); diff compares two stored runs' fitted cost functions and
// exits non-zero when an algorithm's complexity class regressed (e.g.
// n·log n → n²), as opposed to mere constant-factor drift, and also
// reports how the two runs' traces differ frame-by-frame via their Merkle
// footers. fleetdiff fans that trace differ out across every run in the
// store against a baseline.
//
// chaos sweeps seeded fault schedules through one target (see
// internal/chaos): the library's record → replay pipeline (lib, the
// default), the daemon's write path (service) or distributed dispatch to
// worker servers (dist). It exits non-zero unless every schedule
// succeeds, degrades deterministically, or fails with a typed fault
// class. verify audits a stored run directory — or a whole store of them
// — offline and exits non-zero when any artifact is damaged or
// inconsistent; with -range LO:HI it instead proves frames [LO, HI) of
// one trace file intact against the trace's Merkle root, reading only the
// footer and that range.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"algoprof"
	"algoprof/internal/chaos"
	"algoprof/internal/focus"
	"algoprof/internal/trace"
	"algoprof/internal/trace/store"
	"algoprof/internal/verify"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			cmdRecord(os.Args[2:])
			return
		case "replay":
			cmdReplay(os.Args[2:])
			return
		case "diff":
			cmdDiff(os.Args[2:])
			return
		case "fleetdiff":
			cmdFleetDiff(os.Args[2:])
			return
		case "runs":
			cmdRuns(os.Args[2:])
			return
		case "chaos":
			cmdChaos(os.Args[2:])
			return
		case "verify":
			cmdVerify(os.Args[2:])
			return
		}
	}
	cmdRun(os.Args[1:])
}

// profFlags registers the profiling-configuration flags shared by the
// default run mode and the record subcommand.
type profFlags struct {
	mode      *string
	seed      *uint64
	unique    *bool
	eager     *bool
	strategy  *string
	criterion *string
	sample    *int
	maxEvents *uint64
	maxLive   *int64
	deadline  *time.Duration
}

func addProfFlags(fs *flag.FlagSet) *profFlags {
	return &profFlags{
		mode:      fs.String("mode", algoprof.ModeEvents, "profiling mode: events (exact streaming) or paths (Ball–Larus path counters, lower overhead)"),
		seed:      fs.Uint64("seed", 1, "seed for the rand() builtin"),
		unique:    fs.Bool("unique", false, "use the unique-element array size strategy"),
		eager:     fs.Bool("eager", false, "disable the deferred-identification optimization"),
		strategy:  fs.String("strategy", "shared-input", "grouping strategy: shared-input or same-method"),
		criterion: fs.String("criterion", "some-elements", "equivalence criterion: some-elements, all-elements, same-array, same-type"),
		sample:    fs.Int("sample", 0, "keep only every k-th invocation record (memory optimization)"),
		maxEvents: fs.Uint64("max-events", 0, "degrade to invocation sampling after this many profiling events (0 = unlimited)"),
		maxLive:   fs.Int64("max-live-bytes", 0, "degrade when profiler live memory exceeds this estimate (0 = unlimited)"),
		deadline:  fs.Duration("deadline", 0, "halt the run cleanly after this wall-clock budget and report the degraded partial profile (0 = unlimited)"),
	}
}

func (pf *profFlags) config() algoprof.Config {
	cfg := algoprof.Config{Mode: *pf.mode, Seed: *pf.seed, EagerIdentify: *pf.eager, SampleEvery: *pf.sample}
	cfg.Limits = algoprof.Limits{
		MaxEvents:    *pf.maxEvents,
		MaxLiveBytes: *pf.maxLive,
		Deadline:     *pf.deadline,
	}
	if *pf.unique {
		cfg.SizeStrategy = algoprof.UniqueElements
	}
	switch *pf.strategy {
	case "shared-input":
	case "same-method":
		cfg.GroupStrategy = algoprof.SameMethod
	default:
		fatal(fmt.Errorf("unknown -strategy %q", *pf.strategy))
	}
	switch *pf.criterion {
	case "some-elements":
	case "all-elements":
		cfg.Criterion = algoprof.AllElements
	case "same-array":
		cfg.Criterion = algoprof.SameArray
	case "same-type":
		cfg.Criterion = algoprof.SameType
	default:
		fatal(fmt.Errorf("unknown -criterion %q", *pf.criterion))
	}
	return cfg
}

// cmdRun is the classic mode: profile a program live and print the report.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("algoprof", flag.ExitOnError)
	pf := addProfFlags(fs)
	plot := fs.String("plot", "", "also print a scatter plot for the named algorithm (e.g. List.sort/loop1)")
	jsonOut := fs.Bool("json", false, "emit the profile as JSON instead of text")
	focusK := fs.Int("focus", 0, "CCT-guided view: show the K hottest methods with their algorithms")
	fs.Parse(args)

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: algoprof [flags] prog.mj  (or: algoprof record|replay|diff|runs)")
		fs.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	cfg := pf.config()

	if *focusK > 0 {
		res, err := focus.Run(string(src), cfg, *focusK)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== Top %d hot methods (CCT) with their algorithms ===\n", *focusK)
		for _, r := range res.Regions {
			fmt.Printf("%-28s excl=%-10d calls=%d\n", r.Method, r.ExclusiveCost, r.Calls)
			for _, alg := range r.Algorithms {
				fmt.Printf("    %-28s steps=%-10d %s\n", alg.Name, alg.TotalSteps, alg.Description)
				for _, cf := range alg.CostFunctions {
					fmt.Printf("        steps ≈ %s over %s (R2=%.3f)\n", cf.Text, cf.InputLabel, cf.R2)
				}
			}
		}
		return
	}

	prof, err := algoprof.Run(string(src), cfg)
	if err != nil {
		fatal(err)
	}
	printProfile(prof, *jsonOut, *plot)
}

// printProfile renders a profile the same way for live runs, recordings,
// and replays — byte-identical output is the replay correctness contract.
// The degraded notice goes to stderr so that contract holds on stdout even
// when live and replayed runs degrade for different reasons.
func printProfile(prof *algoprof.Profile, jsonOut bool, plot string) {
	if prof.Degraded {
		fmt.Fprintf(os.Stderr, "algoprof: degraded run (%s); totals exact, series sampled\n",
			strings.Join(prof.DegradedReasons, ", "))
	}
	if jsonOut {
		data, err := prof.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}

	fmt.Println("=== Repetition tree (algorithmic profile) ===")
	fmt.Print(prof.Tree())

	fmt.Println("\n=== Algorithms by total algorithmic steps ===")
	for _, alg := range prof.Algorithms {
		fmt.Printf("%-32s steps=%-10d invocations=%-6d %s\n",
			alg.Name, alg.TotalSteps, alg.Invocations, alg.Description)
		for _, cf := range alg.CostFunctions {
			fmt.Printf("    steps ≈ %s over %s (R2=%.3f, %d points)\n",
				cf.Text, cf.InputLabel, cf.R2, len(cf.Points))
		}
	}

	if plot != "" {
		fmt.Printf("\n=== Scatter: %s ===\n", plot)
		p, err := prof.PlotAlgorithm(plot, "", 72, 20)
		if err != nil {
			fatal(err)
		}
		fmt.Print(p)
	}
}

// cmdRecord profiles a program and persists the run — source, event trace,
// and manifest with fitted cost functions — into the trace store.
func cmdRecord(args []string) {
	fs := flag.NewFlagSet("algoprof record", flag.ExitOnError)
	pf := addProfFlags(fs)
	dir := fs.String("store", "traces", "trace store directory")
	name := fs.String("name", "", "run name (default: program basename + timestamp)")
	workload := fs.String("workload", "", "workload label stored in the manifest")
	compress := fs.Bool("compress", true, "DEFLATE-compress trace frames")
	maxTrace := fs.Int64("max-trace-bytes", 0, "stop capturing trace frames past this file size; the trace stays replayable (0 = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the profile as JSON instead of text")
	fs.Parse(args)

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: algoprof record [flags] prog.mj")
		fs.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *name == "" {
		base := strings.TrimSuffix(filepath.Base(fs.Arg(0)), filepath.Ext(fs.Arg(0)))
		*name = fmt.Sprintf("%s-%d", base, time.Now().Unix())
	}

	s, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	cfg := pf.config()
	cfg.Limits.MaxTraceBytes = *maxTrace
	run, err := s.Record(*name, string(src), *workload, cfg,
		trace.WriterOptions{Compress: *compress})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "recorded run %q in %s\n", run.Name, run.Dir)
	printProfile(run.Profile, *jsonOut, "")
}

// cmdReplay rebuilds a stored run's profile offline from its trace and
// prints the same report the live run printed.
func cmdReplay(args []string) {
	fs := flag.NewFlagSet("algoprof replay", flag.ExitOnError)
	dir := fs.String("store", "traces", "trace store directory")
	jsonOut := fs.Bool("json", false, "emit the profile as JSON instead of text")
	fs.Parse(args)

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: algoprof replay [-store DIR] [-json] NAME")
		fs.PrintDefaults()
		os.Exit(2)
	}
	s, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	run, err := s.Replay(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	printProfile(run.Profile, *jsonOut, "")
}

// cmdDiff compares two stored runs' fitted cost functions and exits with
// status 1 when a complexity-class regression is flagged, so it slots into
// CI as an algorithmic-regression gate.
func cmdDiff(args []string) {
	fs := flag.NewFlagSet("algoprof diff", flag.ExitOnError)
	dir := fs.String("store", "traces", "trace store directory")
	fs.Parse(args)

	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: algoprof diff [-store DIR] OLD NEW")
		fs.PrintDefaults()
		os.Exit(2)
	}
	s, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	oldRun, err := s.Load(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	newRun, err := s.Load(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	d := store.DiffRuns(&oldRun.Manifest, &newRun.Manifest)
	fmt.Printf("diff %s -> %s\n", oldRun.Name, newRun.Name)
	fmt.Print(d.Render())
	printTraceDiff(oldRun, newRun)
	if d.HasComplexityRegression() {
		fmt.Fprintln(os.Stderr, "algoprof: complexity regression detected")
		os.Exit(1)
	}
}

// printTraceDiff appends a frame-level trace comparison to a run diff.
// Best-effort: interrupted runs have no reachable trace index, and their
// cost-function diff above still stands on its own.
func printTraceDiff(oldRun, newRun *store.Run) {
	td, err := trace.DiffTraceFiles(
		filepath.Join(oldRun.Dir, store.TraceName),
		filepath.Join(newRun.Dir, store.TraceName))
	if err != nil {
		fmt.Fprintf(os.Stderr, "algoprof: trace diff unavailable: %v\n", err)
		return
	}
	fmt.Print(renderTraceDiff(td))
}

// renderTraceDiff formats a frame-level trace diff.
func renderTraceDiff(td *trace.TraceDiff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d -> %d frames", td.OldFrames, td.NewFrames)
	switch {
	case td.Identical:
		b.WriteString(", identical")
	case td.FullScan:
		fmt.Fprintf(&b, ", %d changed (%d records) via full scan", td.ChangedFrames, td.ChangedRecords)
	default:
		fmt.Fprintf(&b, ", %d changed (%d records) in %d range(s)", td.ChangedFrames, td.ChangedRecords, len(td.ChangedRanges))
	}
	fmt.Fprintf(&b, "; %d bytes read\n", td.BytesReadOld+td.BytesReadNew)
	for _, rg := range td.ChangedRanges {
		fmt.Fprintf(&b, "    frames [%d,%d)\n", rg[0], rg[1])
	}
	return b.String()
}

// cmdFleetDiff compares one baseline run's trace against every other run in
// the store (or an explicit run list), one comparison per core at a time.
// Exit status 1 when any comparison failed.
func cmdFleetDiff(args []string) {
	fs := flag.NewFlagSet("algoprof fleetdiff", flag.ExitOnError)
	dir := fs.String("store", "traces", "trace store directory")
	jsonOut := fs.Bool("json", false, "emit the fleet report as JSON")
	tenant := fs.String("tenant", "", "scope the fleet expansion to one tenant's runs (empty = all)")
	fs.Parse(args)

	if fs.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: algoprof fleetdiff [-store DIR] [-json] [-tenant T] BASELINE [RUN...]")
		fs.PrintDefaults()
		os.Exit(2)
	}
	s, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	rep, err := s.FleetDiffTenant(fs.Arg(0), fs.Args()[1:], *tenant)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		fmt.Printf("fleetdiff baseline=%s runs=%d identical=%d changed=%d failed=%d bytes_read=%d\n",
			rep.Baseline, len(rep.Entries), rep.Identical, rep.Changed, rep.Failed, rep.BytesRead)
		for _, e := range rep.Entries {
			switch {
			case e.Err != "":
				fmt.Printf("  %-24s ERROR %s\n", e.Run, e.Err)
			case e.SkippedByRoot:
				fmt.Printf("  %-24s identical (manifest merkle root)\n", e.Run)
			case e.Identical:
				fmt.Printf("  %-24s identical\n", e.Run)
			default:
				fmt.Printf("  %-24s %s", e.Run, renderTraceDiff(e.Diff))
			}
		}
	}
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "algoprof: fleetdiff: %d run(s) failed to compare\n", rep.Failed)
		os.Exit(1)
	}
}

// cmdRuns lists the stored runs with their manifests' key facts.
func cmdRuns(args []string) {
	fs := flag.NewFlagSet("algoprof runs", flag.ExitOnError)
	dir := fs.String("store", "traces", "trace store directory")
	tenant := fs.String("tenant", "", "list only one tenant's runs (empty = all)")
	fs.Parse(args)

	s, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}
	names, err := s.ListTenant(*tenant)
	if err != nil {
		fatal(err)
	}
	for _, name := range names {
		run, err := s.Load(name)
		if err != nil {
			fatal(err)
		}
		created := time.Unix(run.Manifest.CreatedUnix, 0).UTC().Format(time.RFC3339)
		note := ""
		if run.Manifest.Degraded {
			note = "  DEGRADED(" + strings.Join(run.Manifest.DegradedReasons, ",") + ")"
		}
		tn := ""
		if run.Manifest.Tenant != "" {
			tn = "  tenant=" + run.Manifest.Tenant
		}
		fmt.Printf("%-24s %s  workload=%-20q algorithms=%d  instrs=%d%s%s\n",
			name, created, run.Manifest.Workload, len(run.Manifest.Algorithms),
			run.Manifest.Instructions, tn, note)
	}
}

// cmdChaos sweeps seeded fault schedules through one target and reports
// the outcome trichotomy. Any contract violation — an untyped
// error, a nondeterministic degradation, a silently wrong profile, a panic
// — exits non-zero.
func cmdChaos(args []string) {
	fs := flag.NewFlagSet("algoprof chaos", flag.ExitOnError)
	seeds := fs.Int("seeds", 16, "number of seeded fault schedules to run")
	baseSeed := fs.Uint64("base-seed", 1, "seed of the first schedule")
	dir := fs.String("dir", "", "scratch directory for run stores (default: a temp dir, removed afterwards)")
	verbose := fs.Bool("v", false, "log each schedule as it completes")
	targetName := fs.String("target", string(chaos.Lib), "system to sweep: lib (record → replay pipeline), service (daemon job intake, pool, persist) or dist (distributed dispatch: worker crashes, partitions, slow workers, corrupt responses)")
	fs.Parse(args)
	target, err := chaosTarget(*targetName)
	if err != nil {
		fatalUsage(err)
	}

	scratch := *dir
	if scratch == "" {
		tmp, err := os.MkdirTemp("", "algoprof-chaos-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		scratch = tmp
	}
	cfg := chaos.Config{Seeds: *seeds, BaseSeed: *baseSeed, Dir: scratch}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep, err := chaos.Run(target, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Render())
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

// cmdVerify audits stored runs offline. Its argument is either one run
// directory (it contains a manifest) or a whole store directory, in which
// case every entry is audited — including garbage entries the run listing
// would skip. With -pathdecode the argument is an MJ program instead: it
// is profiled in both events and paths mode and the decoded profile is
// cross-checked node-by-node against the exact one.
func cmdVerify(args []string) {
	fs := flag.NewFlagSet("algoprof verify", flag.ExitOnError)
	pathdecode := fs.Bool("pathdecode", false, "treat the argument as an MJ program and cross-check paths-mode decode against events mode")
	seed := fs.Uint64("seed", 1, "seed for the rand() builtin (with -pathdecode)")
	frameRange := fs.String("range", "", "check frames LO:HI of a trace file against its Merkle root, reading only the footer and that range")
	fs.Parse(args)

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: algoprof verify DIR  (a run directory or a trace store)")
		fmt.Fprintln(os.Stderr, "       algoprof verify -range LO:HI TRACE  (a trace file or run directory)")
		fmt.Fprintln(os.Stderr, "       algoprof verify -pathdecode [-seed N] prog.mj")
		os.Exit(2)
	}
	if *pathdecode {
		cmdVerifyPathDecode(fs.Arg(0), *seed)
		return
	}
	if *frameRange != "" {
		cmdVerifyRange(fs.Arg(0), *frameRange)
		return
	}
	dir := fs.Arg(0)
	var findings []store.Finding
	if _, err := os.Stat(filepath.Join(dir, store.ManifestName)); err == nil {
		findings = store.AuditRun(dir)
	} else {
		var aerr error
		findings, aerr = store.AuditStore(dir)
		if aerr != nil {
			fatal(aerr)
		}
	}
	if len(findings) == 0 {
		fmt.Println("verify: ok")
		return
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	fmt.Fprintf(os.Stderr, "algoprof: verify found %d defect(s)\n", len(findings))
	os.Exit(1)
}

// cmdVerifyRange checks one frame range of a trace file intact against the
// trace's Merkle root. The argument may be a trace file or a run directory
// (then the run's trace is verified). HI may be omitted ("LO:") to mean the
// end of the trace, and LO may be omitted (":HI") to mean the start.
func cmdVerifyRange(path, spec string) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, store.TraceName)
	}
	ix, err := trace.OpenIndex(path)
	if err != nil {
		fatal(err)
	}
	lo, hi, err := parseFrameRange(spec, ix.Frames)
	if err != nil {
		fatalUsage(err)
	}
	rc, err := trace.VerifyFileRange(path, lo, hi)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("verify: frames [%d,%d) ok — %d records, root %s\n", rc.Lo, rc.Hi, rc.Records, rc.Root)
	fmt.Printf("verify: read %d of %d file bytes (%.1f%%)\n",
		rc.BytesRead, rc.FileSize, 100*float64(rc.BytesRead)/float64(rc.FileSize))
}

// cmdVerifyPathDecode profiles one program under both modes with the
// online verifier attached and cross-checks the decoded repetition tree
// against the exact one. Exit status 1 on any disagreement.
func cmdVerifyPathDecode(path string, seed uint64) {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	ev, err := algoprof.Run(string(src), algoprof.Config{Seed: seed, Verify: true})
	if err != nil {
		fatal(fmt.Errorf("events mode: %w", err))
	}
	pt, err := algoprof.Run(string(src), algoprof.Config{Mode: algoprof.ModePaths, Seed: seed, Verify: true})
	if err != nil {
		fatal(fmt.Errorf("paths mode: %w", err))
	}
	evProf, _ := ev.Raw()
	ptProf, _ := pt.Raw()
	vs := verify.CheckPathDecode(evProf, ptProf)
	if len(vs) == 0 {
		fmt.Println("verify: path decode matches events mode")
		return
	}
	for _, v := range vs {
		fmt.Println(v)
	}
	fmt.Fprintf(os.Stderr, "algoprof: path decode disagrees with events mode: %d violation(s)\n", len(vs))
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "algoprof:", err)
	os.Exit(1)
}
