package stand

import (
	"encoding/binary"
	"slices"

	"repro/internal/script"
)

// Content keys. Workbook cells are user bytes, so every field is length
// prefixed: concatenated fields parse back one way only, and two inputs
// encode equal exactly when their fields are equal (FuzzStepKey).

// appendField appends s with its length prefix.
func appendField(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendAttrs appends the attribute count and the attributes sorted by
// name; the names sort in a stack array when they fit.
func appendAttrs(b []byte, attrs map[string]string) []byte {
	var buf [8]string
	names := buf[:0]
	for k := range attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, k := range names {
		b = appendField(appendField(b, k), attrs[k])
	}
	return b
}

// appendReqKey appends one allocation request as the allocator and the
// Applied line see it: the signal name and method as spelled, the sorted
// attributes, the declaration's class, pin and return pin (all declPins
// reads) and the preferred resource, if any.
func appendReqKey(b []byte, st *script.SignalStmt, decl *script.SignalDecl, prefer string, preferred bool) []byte {
	b = appendField(b, st.Name)
	b = appendField(b, st.Call.Method)
	b = appendAttrs(b, st.Call.Attrs)
	b = appendField(b, decl.Class)
	b = appendField(b, decl.Pin)
	b = appendField(b, decl.PinRet)
	if !preferred {
		return append(b, 0)
	}
	return appendField(append(b, 1), prefer)
}
