// Package sheet is the spreadsheet substrate of the tool chain.
//
// The paper uses Microsoft Excel as the authoring front end because "usage
// of the tool chain [must be open] to all involved engineers without
// specific training". Excel itself is proprietary, so this reproduction
// substitutes a plain-text workbook format that preserves exactly what the
// tool chain needs: named sheets containing a rectangular grid of string
// cells. Every sheet printed in the paper is reproduced verbatim in this
// format under testdata/.
//
// Workbook file format ("CSW", comma/semicolon-separated workbook):
//
//	# comment lines start with '#'
//	== SheetName ==
//	cell;cell;cell
//	cell;;cell          <- empty cells allowed
//
// Cells are separated by ';' (the separator Excel uses for CSV export in
// German locales, which matters because the paper's numbers use decimal
// commas). Leading/trailing cell whitespace is trimmed. A cell may be
// quoted with double quotes to protect ';', '#' or leading/trailing
// blanks; a doubled quote inside a quoted cell is a literal quote.
package sheet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Sheet is one named grid of cells. Rows may have differing lengths;
// missing trailing cells read as "".
type Sheet struct {
	Name string
	Rows [][]string

	// lines maps row index to the 1-based line number of the source
	// stream the row was read from. Only ReadWorkbook fills it;
	// programmatically built sheets have no source lines. The static
	// analyzers (internal/lint) use it to anchor findings at real file
	// positions — SARIF viewers and editors address .csw files by line.
	lines []int
}

// Workbook is an ordered collection of sheets with unique names.
type Workbook struct {
	Sheets []*Sheet
}

// NewSheet returns an empty sheet with the given name.
func NewSheet(name string) *Sheet { return &Sheet{Name: name} }

// At returns the cell at (row, col), or "" when the coordinate lies
// outside the grid. Coordinates are zero-based.
func (s *Sheet) At(row, col int) string {
	if row < 0 || row >= len(s.Rows) {
		return ""
	}
	r := s.Rows[row]
	if col < 0 || col >= len(r) {
		return ""
	}
	return r[col]
}

// Set grows the grid as needed and stores value at (row, col).
func (s *Sheet) Set(row, col int, value string) {
	for len(s.Rows) <= row {
		s.Rows = append(s.Rows, nil)
	}
	for len(s.Rows[row]) <= col {
		s.Rows[row] = append(s.Rows[row], "")
	}
	s.Rows[row][col] = value
}

// AppendRow adds a row of cells at the bottom of the sheet.
func (s *Sheet) AppendRow(cells ...string) {
	s.Rows = append(s.Rows, cells)
}

// NumRows returns the number of rows.
func (s *Sheet) NumRows() int { return len(s.Rows) }

// RowLine returns the 1-based source line row i was read from, or 0
// when the sheet was not read from a stream (or the row is synthetic).
func (s *Sheet) RowLine(i int) int {
	if i < 0 || i >= len(s.lines) {
		return 0
	}
	return s.lines[i]
}

// SetRowLine records the source line of row i (used by ReadWorkbook;
// exported for tools that splice sheets while preserving positions).
func (s *Sheet) SetRowLine(i, line int) {
	if i < 0 {
		return
	}
	for len(s.lines) <= i {
		s.lines = append(s.lines, 0)
	}
	s.lines[i] = line
}

// NumCols returns the width of the widest row.
func (s *Sheet) NumCols() int {
	w := 0
	for _, r := range s.Rows {
		if len(r) > w {
			w = len(r)
		}
	}
	return w
}

// Row returns row i padded to the sheet width, never nil.
func (s *Sheet) Row(i int) []string {
	w := s.NumCols()
	out := make([]string, w)
	if i >= 0 && i < len(s.Rows) {
		copy(out, s.Rows[i])
	}
	return out
}

// IsEmptyRow reports whether every cell of row i is blank.
func (s *Sheet) IsEmptyRow(i int) bool {
	if i < 0 || i >= len(s.Rows) {
		return true
	}
	for _, c := range s.Rows[i] {
		if strings.TrimSpace(c) != "" {
			return false
		}
	}
	return true
}

// HeaderIndex scans row 0 for a cell equal (case-insensitively, after
// trimming) to name and returns its column, or -1.
func (s *Sheet) HeaderIndex(name string) int {
	if len(s.Rows) == 0 {
		return -1
	}
	for i, c := range s.Rows[0] {
		if strings.EqualFold(strings.TrimSpace(c), name) {
			return i
		}
	}
	return -1
}

// Sheet returns the sheet with the given name (case-insensitive), or nil.
func (w *Workbook) Sheet(name string) *Sheet {
	for _, s := range w.Sheets {
		if strings.EqualFold(s.Name, name) {
			return s
		}
	}
	return nil
}

// SheetsWithPrefix returns, in workbook order, all sheets whose name
// starts with the given prefix (case-insensitive). Test-definition sheets
// are conventionally named "Test_<name>".
func (w *Workbook) SheetsWithPrefix(prefix string) []*Sheet {
	var out []*Sheet
	for _, s := range w.Sheets {
		if len(s.Name) >= len(prefix) && strings.EqualFold(s.Name[:len(prefix)], prefix) {
			out = append(out, s)
		}
	}
	return out
}

// Add appends a sheet; it returns an error if the name is already taken.
func (w *Workbook) Add(s *Sheet) error {
	if s.Name == "" {
		return fmt.Errorf("sheet: cannot add sheet with empty name")
	}
	if w.Sheet(s.Name) != nil {
		return fmt.Errorf("sheet: duplicate sheet name %q", s.Name)
	}
	w.Sheets = append(w.Sheets, s)
	return nil
}

// ReadWorkbook parses a CSW stream.
func ReadWorkbook(r io.Reader) (*Workbook, error) {
	wb := &Workbook{}
	var cur *Sheet
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if name, ok := sheetHeader(trimmed); ok {
			cur = NewSheet(name)
			if err := wb.Add(cur); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("sheet: line %d: cell data before any '== SheetName ==' header", lineNo)
		}
		cells, err := splitCells(line)
		if err != nil {
			return nil, fmt.Errorf("sheet: line %d: %v", lineNo, err)
		}
		cur.Rows = append(cur.Rows, cells)
		cur.SetRowLine(len(cur.Rows)-1, lineNo)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sheet: read: %v", err)
	}
	return wb, nil
}

// ReadWorkbookFile opens and parses a CSW file.
func ReadWorkbookFile(path string) (*Workbook, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	wb, err := ReadWorkbook(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return wb, nil
}

// ReadWorkbookString parses a CSW document held in a string.
func ReadWorkbookString(s string) (*Workbook, error) {
	return ReadWorkbook(strings.NewReader(s))
}

// WriteWorkbook serialises the workbook in CSW form.
func WriteWorkbook(w io.Writer, wb *Workbook) error {
	bw := bufio.NewWriter(w)
	for i, s := range wb.Sheets {
		if i > 0 {
			if _, err := fmt.Fprintln(bw); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "== %s ==\n", s.Name); err != nil {
			return err
		}
		for _, row := range s.Rows {
			cells := make([]string, len(row))
			for j, c := range row {
				cells[j] = quoteCell(c)
			}
			line := strings.Join(cells, ";")
			if len(row) == 1 && row[0] == "" {
				// A blank line reads as no row; a quoted empty cell
				// reads back as this row of one empty cell.
				line = `""`
			}
			if _, err := fmt.Fprintln(bw, line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WorkbookString renders the workbook as a CSW string.
func WorkbookString(wb *Workbook) string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = WriteWorkbook(&b, wb)
	return b.String()
}

func sheetHeader(line string) (string, bool) {
	if !strings.HasPrefix(line, "==") || !strings.HasSuffix(line, "==") || len(line) < 5 {
		return "", false
	}
	name := strings.TrimSpace(line[2 : len(line)-2])
	if name == "" {
		return "", false
	}
	return name, true
}

// splitCells splits a CSW data line on ';', honouring double quotes.
// Unquoted cells are whitespace-trimmed; quoted cells keep their content
// verbatim (that is the point of quoting).
func splitCells(line string) ([]string, error) {
	var cells []string
	var cur strings.Builder
	inQuote := false
	wasQuoted := false
	flush := func() {
		c := cur.String()
		if !wasQuoted {
			c = strings.TrimSpace(c)
		}
		cells = append(cells, c)
		cur.Reset()
		wasQuoted = false
	}
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case inQuote:
			if c == '"' {
				if i+1 < len(line) && line[i+1] == '"' {
					cur.WriteByte('"')
					i += 2
					continue
				}
				inQuote = false
				i++
				continue
			}
			cur.WriteByte(c)
			i++
		case c == '"':
			inQuote = true
			wasQuoted = true
			i++
		case c == ';':
			flush()
			i++
		default:
			cur.WriteByte(c)
			i++
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	flush()
	return cells, nil
}

func quoteCell(c string) string {
	if c == "" {
		return ""
	}
	needs := strings.ContainsAny(c, ";\"") ||
		c != strings.TrimSpace(c) ||
		strings.HasPrefix(c, "#") ||
		strings.HasPrefix(c, "==") // would read as a sheet header
	if !needs {
		return c
	}
	return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
}
