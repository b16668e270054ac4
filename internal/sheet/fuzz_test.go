package sheet

import (
	"slices"
	"testing"
)

// FuzzWorkbookRoundTrip: every workbook ReadWorkbook accepts survives
// WriteWorkbook unchanged — the same sheet names and the same rows.
// Exploration's -promote writes workbooks through this path, so a row
// the writer cannot express would silently change a promoted suite.
// The seed corpus under testdata/fuzz holds the repository's .csw
// workbooks and two rows the writer once lost: a one-cell row "== X =="
// (read back as a sheet header) and a row of one empty cell (written as
// a blank line, which the reader drops).
func FuzzWorkbookRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		wb, err := ReadWorkbookString(in)
		if err != nil {
			return
		}
		out := WorkbookString(wb)
		back, err := ReadWorkbookString(out)
		if err != nil {
			t.Fatalf("written workbook does not read: %v\n%s", err, out)
		}
		if len(back.Sheets) != len(wb.Sheets) {
			t.Fatalf("%d sheets read back, want %d\n%s", len(back.Sheets), len(wb.Sheets), out)
		}
		for i, s := range wb.Sheets {
			got := back.Sheets[i]
			if got.Name != s.Name {
				t.Fatalf("sheet %d named %q, want %q", i, got.Name, s.Name)
			}
			if !slices.EqualFunc(got.Rows, s.Rows, slices.Equal[[]string]) {
				t.Fatalf("sheet %q rows %q, want %q\n%s", s.Name, got.Rows, s.Rows, out)
			}
		}
	})
}
