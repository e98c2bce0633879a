package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/untimed.golden")

// goldenFile pins the text of every section that prints no timing.
// Regenerate with: go test ./cmd/paper -run TestUntimedSections -update
var goldenFile = filepath.Join("testdata", "untimed.golden")

// TestUntimedSections runs, in the paper's order and at DefaultSweep, the
// twelve sections whose output is a pure function of the code: every
// figure, table, listing and model they print, down to the last digit of
// each coefficient and R². The overhead and ablations sections print
// wall-clock times and stay out. A change meant to alter these results
// regenerates the file with -update and says which lines moved.
func TestUntimedSections(t *testing.T) {
	sections := []struct {
		name string
		run  func(io.Writer) error
	}{
		{"fig1", fig1}, {"fig2", fig2}, {"fig3", fig3}, {"table1", table1},
		{"fig4", fig45}, {"paradigm", paradigm}, {"listing3", listing3},
		{"listing4", listing4}, {"listing5", listing5}, {"goldsmith", goldsmith},
		{"crossover", crossover}, {"compare", compare},
	}
	var got bytes.Buffer
	for _, s := range sections {
		if err := s.run(&got); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	line := 0
	for line < len(gotLines) && line < len(wantLines) && bytes.Equal(gotLines[line], wantLines[line]) {
		line++
	}
	var g, w []byte
	if line < len(gotLines) {
		g = gotLines[line]
	}
	if line < len(wantLines) {
		w = wantLines[line]
	}
	t.Fatalf("output differs from %s at line %d of %d (run with -update if intended):\n got: %q\nwant: %q",
		goldenFile, line+1, len(wantLines), g, w)
}
