package algoprof_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"algoprof"
	"algoprof/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/profile_digests.txt")

// digestFile pins the profile bytes of every corpus program under every
// digest configuration. The other oracles compare two configurations of one
// build; this file compares one build against the commit that wrote it, so
// a change that must leave profiles alone (a faster snapshot path, a new
// data layout) proves it did.
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
				p, err := algoprof.Run(prog.src, conf.cfg)
				var d string
				if err == nil {
					d, err = profileDigest(p)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s %s: %w", prog.name, conf.name, err)
					continue
				}
				lines[i] = prog.name + " " + conf.name + " " + d
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
			t.Fatal(err)
		}
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
