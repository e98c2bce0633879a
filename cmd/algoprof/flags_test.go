package main

import (
	"errors"
	"strings"
	"testing"
)

func TestParseFrameRange(t *testing.T) {
	const frames = 100
	tests := []struct {
		spec    string
		lo, hi  int
		wantErr string // substring of the usage error, "" = valid
	}{
		{spec: "0:100", lo: 0, hi: 100},
		{spec: "5:10", lo: 5, hi: 10},
		{spec: ":", lo: 0, hi: 100},
		{spec: "7:", lo: 7, hi: 100},
		{spec: ":42", lo: 0, hi: 42},
		{spec: "100:100", lo: 100, hi: 100}, // empty range at the end is fine
		{spec: "", wantErr: "want LO:HI"},
		{spec: "12", wantErr: "want LO:HI"},
		{spec: "lo:hi", wantErr: "LO:"},
		{spec: "3:hi", wantErr: "HI:"},
		{spec: "-1:10", wantErr: "LO is negative"},
		{spec: "-5:", wantErr: "LO is negative"},
		{spec: "0:101", wantErr: "exceeds the trace's 100 frames"},
		{spec: ":200", wantErr: "exceeds the trace's 100 frames"},
		{spec: "10:5", wantErr: "LO 10 exceeds HI 5"},
		{spec: "101:", wantErr: "LO 101 exceeds HI 100"},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			lo, hi, err := parseFrameRange(tc.spec, frames)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFrameRange(%q) error: %v", tc.spec, err)
				}
				if lo != tc.lo || hi != tc.hi {
					t.Fatalf("parseFrameRange(%q) = %d:%d, want %d:%d", tc.spec, lo, hi, tc.lo, tc.hi)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFrameRange(%q) = %d:%d, want error containing %q", tc.spec, lo, hi, tc.wantErr)
			}
			var ue *usageError
			if !errors.As(err, &ue) {
				t.Fatalf("parseFrameRange(%q) error %T, want *usageError", tc.spec, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFrameRange(%q) error %q, want substring %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

func TestChaosTarget(t *testing.T) {
	for _, name := range []string{"lib", "service", "dist"} {
		if got, err := chaosTarget(name); err != nil || string(got) != name {
			t.Fatalf("chaosTarget(%q) = %q, %v", name, got, err)
		}
	}
	// Unknown names — including the old -service/-dist spellings and a
	// case variant — are usage errors, never a silent default sweep.
	for _, name := range []string{"", "Lib", "-service", "daemon", "lib,dist"} {
		_, err := chaosTarget(name)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Fatalf("chaosTarget(%q) = %v, want *usageError", name, err)
		}
	}
}
