package script

import (
	"encoding/binary"
	"slices"
)

// Content keys: a stand memoises its routing and rendered expectations
// by what a statement spells, not by pointer. Workbook cells are user
// bytes, so every field is length prefixed: two inputs encode equal
// exactly when their fields are equal (the stand's FuzzStepKey).

func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendCallKey appends a method call's key: the method as spelled, the
// attribute count and the attributes sorted by name. The names sort in
// a stack array when they fit.
func AppendCallKey(b []byte, c *MethodCall) []byte {
	var buf [8]string
	names := buf[:0]
	for k := range c.Attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	b = binary.AppendUvarint(appendField(b, c.Method), uint64(len(names)))
	for _, k := range names {
		b = appendField(appendField(b, k), c.Attrs[k])
	}
	return b
}

// AppendContent appends a statement's part of a stand's plan key, all
// the allocator and an Applied line read of it: the signal name as
// spelled, the call key, and the declaration's class, pin and return
// pin.
func AppendContent(b []byte, st *SignalStmt, d *SignalDecl) []byte {
	b = AppendCallKey(appendField(b, st.Name), &st.Call)
	return appendField(appendField(appendField(b, d.Class), d.Pin), d.PinRet)
}

// contentLen is the length AppendContent appends.
func contentLen(st *SignalStmt, d *SignalDecl) int {
	n := uvarintLen(len(st.Call.Attrs))
	for _, s := range []string{st.Name, st.Call.Method, d.Class, d.Pin, d.PinRet} {
		n += fieldLen(s)
	}
	for k, v := range st.Call.Attrs {
		n += fieldLen(k) + fieldLen(v)
	}
	return n
}

func fieldLen(s string) int { return uvarintLen(len(s)) + len(s) }

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// AppendKey appends one request of a stand's plan key: the statement's
// Content and the resource the stand prefers for it, if any.
func (st *Stmt) AppendKey(b []byte, prefer string, preferred bool) []byte {
	b = append(b, st.Content...)
	if !preferred {
		return append(b, 0)
	}
	return appendField(append(b, 1), prefer)
}
