package stand

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/method"
	"repro/internal/script"
)

// fuzzRunLimit caps the simulated seconds of one fuzz execution; it
// admits the paper's 309 s test. A PWM stimulus or a timing
// measurement turns fast-forward off, and the stand then ticks every
// task period, so longer scripts only slow the fuzzer down. The clock
// bound itself is script.Validate's, tested in package script.
const fuzzRunLimit = 400

// FuzzDecodeScript checks script XML decoding: any input DecodeString
// accepts re-encodes and decodes to an equal Script, and any input
// Compile accepts runs on the paper stand with the interior light
// without panicking. The seed corpus in testdata/fuzz/FuzzDecodeScript
// holds the first script of each builtin workbook and the timing
// inputs that once panicked the scheduler: dt NaN, dt INF and a wait of
// -5 s.
func FuzzDecodeScript(f *testing.F) {
	reg := method.Builtin()
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := script.DecodeString(in)
		if err != nil {
			return
		}
		enc, err := script.EncodeString(sc)
		if err != nil {
			t.Fatalf("decoded script does not encode: %v", err)
		}
		again, err := script.DecodeString(enc)
		if err != nil {
			t.Fatalf("encoded script does not decode: %v\n%s", err, enc)
		}
		if !sameScript(sc, again) {
			t.Fatalf("round trip changed the script:\n%#v\n%#v", sc, again)
		}

		c, err := script.Compile(sc, reg)
		if err != nil {
			return
		}
		run := 0.0
		for _, cs := range c.Steps {
			run += cs.Step.Dt + cs.ExtraWait
		}
		if run > fuzzRunLimit {
			return
		}
		paperStand(t).RunCompiled(context.Background(), c, RunOptions{})
	})
}

// sameScript is deep equality with NaN step durations equal to each
// other (Validate rejects them, but decoding keeps them).
func sameScript(a, b *script.Script) bool {
	if len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.Steps {
		if math.IsNaN(a.Steps[i].Dt) != math.IsNaN(b.Steps[i].Dt) {
			return false
		}
	}
	na, nb := *a, *b
	na.Steps, nb.Steps = withoutNaN(a.Steps), withoutNaN(b.Steps)
	return reflect.DeepEqual(&na, &nb)
}

func withoutNaN(steps []*script.Step) []*script.Step {
	out := make([]*script.Step, len(steps))
	for i, s := range steps {
		c := *s
		if math.IsNaN(c.Dt) {
			c.Dt = 0
		}
		out[i] = &c
	}
	return out
}
