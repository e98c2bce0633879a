package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"algoprof"
)

// reference is a program's profile as algoprof.Run produced it at set-up;
// every later pass must reproduce it byte for byte.
type reference struct {
	digest [32]byte // of Profile.JSON()
	algs   []byte   // the algorithms alone, serialized as Profile.JSON does
}

// profileRefs profiles every program once with algoprof.Run, checks the
// paper's labels on the result, and returns the references.
func profileRefs(progs []program) ([]reference, error) {
	refs := make([]reference, len(progs))
	for i, p := range progs {
		prof, err := algoprof.Run(p.src, p.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out, err := prof.JSON()
		if err != nil {
			return nil, err
		}
		if err := checkLabels(p, prof.Algorithms); err != nil {
			return nil, err
		}
		algs, err := algorithmsJSON(prof.Algorithms)
		if err != nil {
			return nil, err
		}
		refs[i] = reference{sha256.Sum256(out), algs}
	}
	return refs, nil
}

// sameRefs checks that a repeated set-up reproduced the first one's
// profiles exactly.
func sameRefs(progs []program, want, got []reference) error {
	for i := range want {
		if want[i].digest != got[i].digest {
			return fmt.Errorf("%s: profile digest changed between set-ups", progs[i].name)
		}
	}
	return nil
}

// checkDigest checks a profile's JSON against the program's reference.
func checkDigest(p program, ref reference, out []byte, what string) error {
	if sha256.Sum256(out) != ref.digest {
		return fmt.Errorf("%s: %s profile differs from algoprof.Run's", p.name, what)
	}
	return nil
}

// checkLabels checks a profile against the complexity classes the paper
// states for the program's algorithms, and that every expected thread
// contributed algorithms.
func checkLabels(p program, algs []algoprof.Algorithm) error {
	for _, l := range p.labels {
		var models []string
		for _, a := range algs {
			if a.Name == l.alg {
				for _, cf := range a.CostFunctions {
					models = append(models, cf.Model)
				}
			}
		}
		if !slices.Contains(models, l.model) {
			return fmt.Errorf("%s: %s fits %v; the paper's label is %s", p.name, l.alg, models, l.model)
		}
	}
	for _, prefix := range p.threadPrefixes {
		found := false
		for _, a := range algs {
			found = found || strings.HasPrefix(a.Name, prefix)
		}
		if !found {
			return fmt.Errorf("%s: no %s algorithm in the merged profile", p.name, prefix)
		}
	}
	return nil
}

// checkCoverage books the traced run's span coverage as one more checked
// unit: spans must account for at least 95% of a traced pass.
func checkCoverage(r *run, coverage float64) {
	var err error
	if coverage < 0.95 {
		err = fmt.Errorf("layer spans cover %.1f%% of the traced pass, want at least 95%%", 100*coverage)
	}
	r.unit(err)
}
