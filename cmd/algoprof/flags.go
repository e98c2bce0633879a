package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"algoprof/internal/chaos"
)

// usageError marks a bad flag or argument value. It exits with status 2
// (usage), distinguishing operator mistakes from runtime failures, which
// exit 1.
type usageError struct{ msg string }

// Error implements error.
func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) *usageError {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// parseFrameRange validates a -range LO:HI spec against the trace's frame
// count. Either bound may be omitted ("LO:" runs to the end, ":HI" starts
// at 0). Negative, reversed, and out-of-bounds ranges are usage errors —
// rejected before any frame is read.
func parseFrameRange(spec string, frames int) (lo, hi int, err error) {
	colon := strings.IndexByte(spec, ':')
	if colon < 0 {
		return 0, 0, usagef("bad -range %q: want LO:HI", spec)
	}
	lo, hi = 0, frames
	if s := spec[:colon]; s != "" {
		if lo, err = strconv.Atoi(s); err != nil {
			return 0, 0, usagef("bad -range %q: LO: %v", spec, err)
		}
	}
	if s := spec[colon+1:]; s != "" {
		if hi, err = strconv.Atoi(s); err != nil {
			return 0, 0, usagef("bad -range %q: HI: %v", spec, err)
		}
	}
	switch {
	case lo < 0:
		return 0, 0, usagef("bad -range %q: LO is negative", spec)
	case hi > frames:
		return 0, 0, usagef("bad -range %q: HI %d exceeds the trace's %d frames", spec, hi, frames)
	case lo > hi:
		return 0, 0, usagef("bad -range %q: LO %d exceeds HI %d", spec, lo, hi)
	}
	return lo, hi, nil
}

// validateWorkers validates a -j worker count: 0 means all cores,
// positive bounds the pool, negative is meaningless.
func validateWorkers(j int) error {
	if j < 0 {
		return usagef("bad -j %d: want 0 (all cores) or a positive worker count", j)
	}
	return nil
}

// chaosTarget validates a chaos -target name.
func chaosTarget(name string) (chaos.Target, error) {
	switch t := chaos.Target(name); t {
	case chaos.Lib, chaos.Service, chaos.Dist:
		return t, nil
	}
	return "", usagef("bad -target %q: want lib, service or dist", name)
}

// fatalUsage reports a usage error and exits 2, matching flag-package
// behaviour for malformed flags.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "algoprof:", err)
	os.Exit(2)
}
