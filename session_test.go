package algoprof

import (
	"io"
	"testing"

	"algoprof/internal/core"
	"algoprof/internal/mj/compiler"
	"algoprof/internal/trace"
)

// TestSessionWiring: a thread with neither a verifier nor a trace writer
// riding along hands the VM its profiler itself, keeping plain runs off
// the transport; either rider moves the events and the heap journal onto
// the transport's producer.
func TestSessionWiring(t *testing.T) {
	prog, err := compiler.CompileSource(`class Main { public static void main() { print(1); } }`)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := instrumentFor(prog, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		tw     *trace.Writer
		direct bool
	}{
		{"plain", Config{}, nil, true},
		{"verified", Config{Verify: true}, nil, false},
		{"recorded", Config{}, trace.NewWriter(io.Discard, trace.WriterOptions{}), false},
	} {
		ts := newSession(ins, tc.cfg, 0, tc.tw).wire(ins)
		_, direct := ts.Listener.(*core.Profiler)
		if direct != tc.direct || (ts.Journal == nil) != tc.direct || (ts.BindClock == nil) != tc.direct {
			t.Errorf("%s: listener %T, journal %v, clock bound %v; want direct wiring %v",
				tc.name, ts.Listener, ts.Journal != nil, ts.BindClock != nil, tc.direct)
		}
	}
}
