package stand

import (
	"bytes"
	"maps"
	"testing"

	"repro/internal/script"
)

// keyTuple is one allocation request as appendReqKey sees it.
type keyTuple struct {
	name, method       string
	attrs              map[string]string
	class, pin, pinRet string
	prefer             string
	preferred          bool
}

func (k keyTuple) encode() []byte {
	st := &script.SignalStmt{Name: k.name, Call: script.MethodCall{Method: k.method, Attrs: k.attrs}}
	decl := &script.SignalDecl{Name: k.name, Class: k.class, Pin: k.pin, PinRet: k.pinRet}
	return appendReqKey(nil, st, decl, k.prefer, k.preferred)
}

// equal is field equality; an absent preference carries no resource.
func (k keyTuple) equal(o keyTuple) bool {
	return k.name == o.name && k.method == o.method && maps.Equal(k.attrs, o.attrs) &&
		k.class == o.class && k.pin == o.pin && k.pinRet == o.pinRet &&
		k.preferred == o.preferred && (!k.preferred || k.prefer == o.prefer)
}

// FuzzStepKey checks that two requests encode equal exactly when their
// fields are equal, and that a request encodes the same whatever order
// its attribute map was built in. Each tuple is name, method, two
// attribute pairs (a repeated name keeps the second value), class, pin,
// return pin, preference and whether there is one. The seed corpus in
// testdata/fuzz/FuzzStepKey holds near-collisions: a byte moved across a
// field boundary (a=bc vs ab=c, name vs method, class vs pin), the same
// pin as forward or return pin, an empty vs a missing preference.
func FuzzStepKey(f *testing.F) {
	f.Fuzz(func(t *testing.T,
		n1, m1, k1a, v1a, k1b, v1b, c1, p1, r1, pr1 string, has1 bool,
		n2, m2, k2a, v2a, k2b, v2b, c2, p2, r2, pr2 string, has2 bool) {
		a := keyTuple{n1, m1, map[string]string{k1a: v1a, k1b: v1b}, c1, p1, r1, pr1, has1}
		b := keyTuple{n2, m2, map[string]string{k2a: v2a, k2b: v2b}, c2, p2, r2, pr2, has2}
		if ea, eb := a.encode(), b.encode(); bytes.Equal(ea, eb) != a.equal(b) {
			t.Fatalf("fields equal: %v, encodings equal: %v\n%+v\n%+v", a.equal(b), bytes.Equal(ea, eb), a, b)
		}
		// The same attributes inserted in the other order.
		rev := a
		rev.attrs = map[string]string{k1b: v1b}
		if k1a != k1b {
			rev.attrs[k1a] = v1a
		}
		if !bytes.Equal(a.encode(), rev.encode()) {
			t.Fatalf("attribute insertion order changed the encoding: %+v", a)
		}
	})
}
