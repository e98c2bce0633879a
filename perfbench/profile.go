package main

import (
	"bytes"
	"fmt"

	"algoprof"
)

// profileWorkload profiles a mix with algoprof.Run, one pass after
// another. Set-up generates the mix and profiles it once (the warm-up
// whose profiles every later pass must reproduce).
func profileWorkload(mix func(uint64) []program) func(o opts, r *run) error {
	return func(o opts, r *run) error {
		var progs []program
		var refs []reference
		for i := 0; i < setups; i++ {
			w := startWatch()
			progs = mix(o.seed)
			got, err := profileRefs(progs)
			r.setup = append(r.setup, w.elapsed().cpu.Seconds())
			if err == nil && refs != nil {
				err = sameRefs(progs, refs, got)
			}
			r.unit(err)
			if refs == nil {
				refs = got
			}
		}
		if refs == nil {
			return fmt.Errorf("set-up failed: %s", r.failures[0])
		}

		onePass := func() (elapsed, int, error) {
			outs := make([][]byte, len(progs))
			w := startWatch()
			for i, p := range progs {
				prof, err := algoprof.Run(p.src, p.cfg)
				if err != nil {
					return elapsed{}, 0, fmt.Errorf("%s: %w", p.name, err)
				}
				if outs[i], err = prof.JSON(); err != nil {
					return elapsed{}, 0, err
				}
			}
			el := w.elapsed()
			n := 0
			for i, out := range outs {
				n += len(out)
				if err := checkDigest(progs[i], refs[i], out, "pass"); err != nil {
					return elapsed{}, 0, err
				}
			}
			return el, n, nil
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
			r.traced(tr, &walls, func() error { return composePass(tr, progs, refs) })
		})
		repeat(reference, func() {
			tr.beginPass()
			var err error
			for _, p := range progs {
				if err = plainRun(tr, p); err != nil {
					break
				}
			}
			tr.endPass()
			r.unit(err)
		})
		r.layer["profile_s"] = median(r.op) / 1000
		r.finishTrace(tr, walls)
		return nil
	}
}

// composePass is one pass of the mix through the traced composition of
// algoprof.Run, checked against the library's own algorithms.
func composePass(tr *tracer, progs []program, refs []reference) error {
	for i, p := range progs {
		algs, err := compose(tr, p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if !bytes.Equal(algs, refs[i].algs) {
			return fmt.Errorf("%s: the traced composition's algorithms differ from algoprof.Run's", p.name)
		}
	}
	return nil
}
