package experiments

import (
	"runtime"

	"algoprof/internal/benchfile"
)

// leg is one configuration a measurement times.
type leg struct {
	name string
	run  func() error
}

// rounds holds each leg's wall time in nanoseconds, one sample per round.
// A round runs every leg back to back, so two legs' samples of one round
// saw one machine state.
type rounds map[string][]float64

// timeLegs runs legs interleaved for n rounds, in order within a round,
// and times each run with now. Each leg starts after a collection, so no
// leg pays for the garbage of the one before it. A non-nil check runs
// after every round, outside the legs' times, so a measurement can hold
// each round's outputs to its identity checks.
func timeLegs(n int, now func() int64, check func() error, legs ...leg) (rounds, error) {
	r := make(rounds, len(legs))
	for round := 0; round < n; round++ {
		for _, l := range legs {
			runtime.GC()
			t0 := now()
			if err := l.run(); err != nil {
				return nil, err
			}
			r[l.name] = append(r[l.name], float64(now()-t0))
		}
		if check != nil {
			if err := check(); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// ns summarizes one leg's wall times.
func (r rounds) ns(name string) benchfile.Summary { return benchfile.Summarize(r[name]) }

// ratio summarizes the per-round ratio of leg num's time over leg den's.
// On a shared host whose speed drifts over seconds, a per-round ratio
// holds where a ratio of two legs' medians or minima does not.
func (r rounds) ratio(num, den string) benchfile.Summary {
	xs := make([]float64, len(r[num]))
	for i := range xs {
		xs[i] = r[num][i] / r[den][i]
	}
	return benchfile.Summarize(xs)
}
