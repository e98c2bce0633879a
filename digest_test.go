package algoprof_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"algoprof"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
	"algoprof/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/profile_digests.txt")

// digestFile pins the profile bytes of every corpus program under every
// digest configuration, through every run entry point. The other oracles
// compare two configurations of one build; this file compares one build
// against the commit that wrote it, so a change that must leave profiles
// alone (a faster snapshot path, a new data layout) proves it did.
//
// Regenerate with: go test . -run TestProfileDigests -update
var digestFile = filepath.Join("testdata", "profile_digests.txt")

// digestProgram and digestConfig name one corpus program and one profiling
// configuration; a digest line is keyed by the pair.
type digestProgram struct{ name, src string }

type digestConfig struct {
	name string
	cfg  algoprof.Config
}

// digestCorpus lists the programs whose profiles are pinned: Table 1's
// eighteen rows at size 16 and the paper's listings and figure workloads.
func digestCorpus() []digestProgram {
	var out []digestProgram
	for _, row := range workloads.Table1() {
		out = append(out, digestProgram{"table1/" + row.Name(), row.Source(16)})
	}
	return append(out, []digestProgram{
		{"listing3", workloads.Listing3},
		{"listing4", workloads.Listing4(40)},
		{"listing5", workloads.Listing5},
		{"running", workloads.RunningExample(workloads.Random, 36, 6, 2)},
		{"running-scanned", workloads.RunningExampleScanned(workloads.Random, 24, 6, 2, 2)},
		{"functional-sort", workloads.FunctionalSort(workloads.Random, 24, 6, 2)},
		{"arraylist-naive", workloads.ArrayListGrow(true, 36, 6, 2)},
		{"arraylist-ideal", workloads.ArrayListGrow(false, 36, 6, 2)},
		{"merge-vs-insertion", workloads.MergeVsInsertion(36, 6, 2)},
		{"threaded", workloads.Threaded(2, 24)},
	}...)
}

// digestConfigs lists the configurations every corpus program runs under:
// both modes × both array size strategies × the four equivalence criteria,
// then the identification, memo, memory-limit and grouping variants in
// events mode.
func digestConfigs() []digestConfig {
	strategies := []struct {
		name  string
		strat algoprof.SizeStrategy
	}{{"capacity", algoprof.Capacity}, {"unique", algoprof.UniqueElements}}
	criteria := []struct {
		name string
		crit algoprof.Criterion
	}{
		{"some-elements", algoprof.SomeElements},
		{"all-elements", algoprof.AllElements},
		{"same-array", algoprof.SameArray},
		{"same-type", algoprof.SameType},
	}
	var out []digestConfig
	for _, mode := range []string{algoprof.ModeEvents, algoprof.ModePaths} {
		for _, s := range strategies {
			for _, c := range criteria {
				out = append(out, digestConfig{mode + "/" + s.name + "/" + c.name,
					algoprof.Config{Mode: mode, SizeStrategy: s.strat, Criterion: c.crit}})
			}
		}
	}
	return append(out, []digestConfig{
		{"eager-identify", algoprof.Config{EagerIdentify: true}},
		{"no-memo", algoprof.Config{DisableMemo: true}},
		// Small enough to trip on 21 of the 28 corpus programs, so the
		// registry's size estimate decides which history records survive.
		{"max-live-bytes", algoprof.Config{Limits: algoprof.Limits{MaxLiveBytes: 4 << 10}}},
		{"same-method", algoprof.Config{GroupStrategy: algoprof.SameMethod}},
	}...)
}

// profileDigest hashes everything a profile exposes: the JSON export, the
// rendered tree, the interned cost keys (run manifests persist them), and
// each canonical input's identity, kind, sizes, type counts and label.
func profileDigest(p *algoprof.Profile) (string, error) {
	h := sha256.New()
	js, err := p.JSON()
	if err != nil {
		return "", err
	}
	h.Write(js)
	fmt.Fprintf(h, "\n--tree--\n%s\n--cost keys--\n", p.Tree())
	prof, _ := p.Raw()
	for _, k := range prof.CostKeys() {
		fmt.Fprintln(h, k)
	}
	fmt.Fprintln(h, "--inputs--")
	reg := prof.Registry()
	for _, id := range reg.CanonicalIDs() {
		in := reg.Input(id)
		types := make([]string, 0, len(in.MaxTypeCounts))
		for name, n := range in.MaxTypeCounts {
			types = append(types, fmt.Sprintf("%s=%d", name, n))
		}
		sort.Strings(types)
		fmt.Fprintf(h, "%d %s size=%d types=[%s] arrayrefs=%d %q\n",
			in.ID, in.Kind, in.MaxSize, strings.Join(types, " "), in.MaxArrayRefs, in.Label())
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// memSink keeps a recording's per-thread traces in memory.
type memSink struct {
	mu   sync.Mutex
	bufs map[int]*bytes.Buffer
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func (m *memSink) open(tid int) (io.WriteCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bufs == nil {
		m.bufs = map[int]*bytes.Buffer{}
	}
	b := &bytes.Buffer{}
	m.bufs[tid] = b
	return nopWriteCloser{b}, nil
}

// readers opens one reader over the main trace and one per thread trace.
func (m *memSink) readers(main []byte) (*trace.Reader, map[int]*trace.Reader, error) {
	r, err := trace.NewReader(main)
	if err != nil {
		return nil, nil, err
	}
	threads := map[int]*trace.Reader{}
	for tid, b := range m.bufs {
		if threads[tid], err = trace.NewReader(b.Bytes()); err != nil {
			return nil, nil, fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return r, threads, nil
}

// entryPointProfiles profiles src under cfg through every entry point the
// digests pin: Run, Run with the verifier on, and — in events mode, the
// only mode traces carry — a threaded recording with its sequential and
// 2-worker replays. Small frames and frequent checkpoints give the
// parallel replay frames to fan out. Traces carry no program output, so
// the replays take Stdout and Output from the recording.
func entryPointProfiles(src string, cfg algoprof.Config) ([]string, []*algoprof.Profile, error) {
	verified := cfg
	verified.Verify = true
	names := []string{"run", "verified run"}
	var profiles []*algoprof.Profile
	for i, c := range []algoprof.Config{cfg, verified} {
		p, err := algoprof.Run(src, c)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", names[i], err)
		}
		profiles = append(profiles, p)
	}
	if cfg.Mode == algoprof.ModePaths {
		return names, profiles, nil
	}
	ctx := context.Background()
	var main bytes.Buffer
	sink := &memSink{}
	rec, err := algoprof.RecordSinkContext(ctx, src, cfg, &main, trace.WriterOptions{FrameSize: 1 << 10, CheckpointEvery: 2}, sink.open)
	if err != nil {
		return nil, nil, fmt.Errorf("record: %w", err)
	}
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return nil, nil, err
	}
	r, threads, err := sink.readers(main.Bytes())
	if err != nil {
		return nil, nil, err
	}
	seq, err := algoprof.ReplayProgramThreadsContext(ctx, prog, cfg, r, threads)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if r, threads, err = sink.readers(main.Bytes()); err != nil {
		return nil, nil, err
	}
	par, err := algoprof.ReplayProgramThreadsParallel(ctx, prog, cfg, r, threads, 2)
	if err != nil {
		return nil, nil, fmt.Errorf("parallel replay: %w", err)
	}
	for _, p := range []*algoprof.Profile{seq, par} {
		p.Stdout, p.Output = rec.Stdout, rec.Output
	}
	return append(names, "recording", "replay", "parallel replay"), append(profiles, rec, seq, par), nil
}

// digestLine returns the "program config digest" line of Run's profile,
// failing when any other entry point's profile hashes differently.
func digestLine(prog digestProgram, conf digestConfig) (string, error) {
	names, profiles, err := entryPointProfiles(prog.src, conf.cfg)
	if err != nil {
		return "", err
	}
	var want string
	for i, p := range profiles {
		d, err := profileDigest(p)
		if err != nil {
			return "", err
		}
		if i == 0 {
			want = d
		} else if d != want {
			return "", fmt.Errorf("%s digest %s differs from run's %s", names[i], d, want)
		}
	}
	return prog.name + " " + conf.name + " " + want, nil
}

// computeDigests profiles the corpus under every configuration on a small
// worker pool and returns "program config digest" lines in corpus order.
func computeDigests(t *testing.T) []string {
	corpus, configs := digestCorpus(), digestConfigs()
	lines := make([]string, len(corpus)*len(configs))
	errs := make([]error, len(lines))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				prog, conf := corpus[i/len(configs)], configs[i%len(configs)]
				var err error
				if lines[i], err = digestLine(prog, conf); err != nil {
					errs[i] = fmt.Errorf("%s %s: %w", prog.name, conf.name, err)
				}
			}
		}()
	}
	for i := range lines {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return lines
}

// TestProfileDigests fails when any pinned profile changes. A change that
// alters profiles on purpose regenerates the file with -update and says
// which digests moved and why.
func TestProfileDigests(t *testing.T) {
	got := computeDigests(t)
	if *updateDigests {
		var b bytes.Buffer
		b.WriteString("# Profile digests: program, config, sha256 prefix of JSON+Tree+CostKeys+inputs.\n")
		b.WriteString("# Regenerate with: go test . -run TestProfileDigests -update\n")
		for _, l := range got {
			b.WriteString(l + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("reading digest file (run with -update to create it): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var diffs []string
	for _, l := range got {
		i := strings.LastIndexByte(l, ' ')
		key, d := l[:i], l[i+1:]
		switch w, ok := want[key]; {
		case !ok:
			diffs = append(diffs, key+": not in digest file")
		case w != d:
			diffs = append(diffs, key+": "+w+" -> "+d)
		}
		delete(want, key)
	}
	for key := range want {
		diffs = append(diffs, key+": in digest file but no longer computed")
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		t.Errorf("%d of %d profile digests differ (run with -update if intended):\n%s",
			len(diffs), len(got), strings.Join(diffs, "\n"))
	}
}
