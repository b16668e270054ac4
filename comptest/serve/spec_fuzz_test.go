package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/comptest"
)

// FuzzNormalizeSpec checks job-spec request decoding: any body decoded
// as handleSubmit decodes it (unknown fields rejected) goes through
// normalizeSpec and the fault and oracle validation without panicking,
// and a spec normalizeSpec accepts is a fixed point — normalizing it
// again yields an equal spec and the same workbook. The corpus is
// seeded with the API's golden job spec and every rejected spec of
// TestSubmitValidation.
func FuzzNormalizeSpec(f *testing.F) {
	golden, err := os.ReadFile("../api/testdata/v1_jobspec.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{}`))
	for _, tc := range badSpecs {
		f.Add([]byte(tc.spec))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		wb, err := normalizeSpec(&spec)
		if err != nil {
			return
		}
		_ = comptest.CheckFaults(spec.DUT, spec.Faults...)
		for _, o := range spec.Oracle {
			_ = comptest.CheckFaults(spec.DUT, o)
		}
		if spec.Kind == "" || spec.DUT == "" || spec.Stand == "" || wb == "" {
			t.Fatalf("accepted spec names no kind, DUT, stand or workbook: %+v", spec)
		}
		again := spec
		wb2, err := normalizeSpec(&again)
		if err != nil {
			t.Fatalf("normalized spec rejected: %v\n%+v", err, spec)
		}
		if !reflect.DeepEqual(again, spec) || wb2 != wb {
			t.Fatalf("normalizing twice changed the spec:\n%+v\n%+v", spec, again)
		}
	})
}
