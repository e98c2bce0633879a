package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"algoprof"
	"algoprof/internal/trace/store"
)

// recordReplay records every program of its mix into a run store and
// replays each stored run. Set-up opens a fresh store and makes one
// warm-up pass. A traced run ends with the daemon leg.
func recordReplay(o opts, r *run) error {
	var st *store.Store
	var progs []program
	var refs []reference
	for i := 0; i < setups; i++ {
		w := startWatch()
		s, err := store.Open(filepath.Join(o.tmp, fmt.Sprintf("store-%d", i)))
		if err != nil {
			return err
		}
		progs = recordMix(o.seed)
		got, err := profileRefs(progs)
		if err == nil {
			var runs []storedPair
			if _, _, runs, err = recordReplayPass(nil, s, progs, -1); err == nil {
				_, err = verifyRuns(s, progs, got, runs)
			}
		}
		r.setup = append(r.setup, w.elapsed().cpu.Seconds())
		if err == nil && refs != nil {
			err = sameRefs(progs, refs, got)
		}
		r.unit(err)
		if refs == nil {
			refs = got
		}
		if st != nil {
			if err := os.RemoveAll(st.Dir()); err != nil {
				return err
			}
		}
		st = s
	}
	if refs == nil {
		return fmt.Errorf("set-up failed: %s", r.failures[0])
	}

	n := 0
	onePass := func() (elapsed, int, error) {
		n++
		rec, rep, runs, err := recordReplayPass(nil, st, progs, n)
		if err != nil {
			return elapsed{}, 0, err
		}
		stored, err := verifyRuns(st, progs, refs, runs)
		r.add("record_s", rec.wall.Seconds())
		r.add("replay_s", rep.wall.Seconds())
		r.add("trace_bytes", float64(stored))
		return rec.add(rep), stored, err
	}
	if !o.trace {
		repeat(o.seconds, func() { r.timed(onePass) })
		return nil
	}

	tr := newTracer()
	var walls []float64
	alternating, reference := splitRun(o.seconds)
	repeat(alternating, func() {
		r.timed(onePass)
		n++
		var runs []storedPair
		r.traced(tr, &walls, func() (err error) {
			_, _, runs, err = recordReplayPass(tr, st, progs, n)
			return err
		})
		_, err := verifyRuns(st, progs, refs, runs)
		r.unit(err)
		tr.beginPass()
		trips, err := memPass(tr, progs)
		tr.endPass()
		if err == nil {
			err = checkTrips(progs, refs, trips)
		}
		r.unit(err)
	})
	// The codec passes decode and re-encode one recording per program,
	// made before they start. They get a quarter of the reference share;
	// the daemon leg gets the rest, to complete about a thousand jobs.
	trips, err := memPass(nil, progs)
	if err != nil {
		return err
	}
	repeat(reference/4, func() {
		tr.beginPass()
		var err error
		for i, p := range progs {
			if err = plainRun(tr, p); err != nil {
				break
			}
			if err = traceCodec(tr, trips[i].mem); err != nil {
				break
			}
		}
		tr.endPass()
		r.unit(err)
	})
	r.layer["record_s"] = median(r.series["record_s"])
	r.layer["replay_s"] = median(r.series["replay_s"])
	r.layer["trace_bytes"] = median(r.series["trace_bytes"])
	r.finishTrace(tr, walls)
	return daemonLeg(o, r, reference-reference/4)
}

// roundTrip is one program recorded into memory and replayed from there.
type roundTrip struct {
	mem      *memTraces
	recorded []byte
	replayed *algoprof.Profile
}

// memPass makes the in-memory round trip of every program: the library
// calls inside the run store's record and replay.
func memPass(tr *tracer, progs []program) ([]roundTrip, error) {
	trips := make([]roundTrip, len(progs))
	for i, p := range progs {
		var err error
		t := &trips[i]
		if t.mem, t.recorded, t.replayed, err = memRoundTrip(tr, p); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return trips, nil
}

// checkTrips checks that every in-memory recording and its replay
// reproduce the library's profile.
func checkTrips(progs []program, refs []reference, trips []roundTrip) error {
	for i, p := range progs {
		if err := checkDigest(p, refs[i], trips[i].recorded, "in-memory recording's"); err != nil {
			return err
		}
		// An offline replay carries no program output (the run store keeps
		// that in its manifest), so only the algorithms are compared.
		algs, err := algorithmsJSON(trips[i].replayed.Algorithms)
		if err != nil {
			return err
		}
		if !bytes.Equal(algs, refs[i].algs) {
			return fmt.Errorf("%s: in-memory replay's algorithms differ from algoprof.Run's", p.name)
		}
	}
	return nil
}

// storedPair is one program's stored run and its replay.
type storedPair struct{ rec, rep *store.Run }

// recordReplayPass records and replays every program once, returning the
// time spent in each of the two store calls.
func recordReplayPass(tr *tracer, st *store.Store, progs []program, n int) (rec, rep elapsed, runs []storedPair, err error) {
	for _, p := range progs {
		var pair storedPair
		name := fmt.Sprintf("pass%d-%s", n, p.name)
		w := startWatch()
		err = tr.call("store.record", func() (err error) {
			pair.rec, err = st.Record(name, p.src, "perfbench", p.cfg, traceOptions)
			return err
		})
		rec = rec.add(w.elapsed())
		if err != nil {
			return rec, rep, runs, fmt.Errorf("%s: record: %w", p.name, err)
		}
		w = startWatch()
		err = tr.call("store.replay", func() (err error) {
			pair.rep, err = st.Replay(name)
			return err
		})
		rep = rep.add(w.elapsed())
		if err != nil {
			return rec, rep, runs, fmt.Errorf("%s: replay: %w", p.name, err)
		}
		runs = append(runs, pair)
	}
	return rec, rep, runs, nil
}

// verifyRuns checks that each recorded profile matches algoprof.Run's and
// that its replay reproduces it byte for byte, then discards the runs. It
// returns the bytes the runs occupied in the store.
func verifyRuns(st *store.Store, progs []program, refs []reference, runs []storedPair) (int, error) {
	stored := 0
	var first error
	for i, pair := range runs {
		ents, err := os.ReadDir(pair.rec.Dir)
		for _, e := range ents {
			if fi, ierr := e.Info(); ierr == nil {
				stored += int(fi.Size())
			}
		}
		if err == nil {
			err = checkPair(progs[i], refs[i], pair)
		}
		if err == nil {
			err = st.Discard(pair.rec.Name)
		}
		if first == nil {
			first = err
		}
	}
	return stored, first
}

func checkPair(p program, ref reference, pair storedPair) error {
	rec, err := pair.rec.Profile.JSON()
	if err != nil {
		return err
	}
	rep, err := pair.rep.Profile.JSON()
	if err != nil {
		return err
	}
	if err := checkDigest(p, ref, rec, "recorded"); err != nil {
		return err
	}
	return checkDigest(p, ref, rep, "replayed")
}
