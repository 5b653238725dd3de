// Package stats renders the experiment tables: fixed-width text tables in
// the shape of the paper's, also as CSV and markdown, plus the Mean and
// GeoMean helpers.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table accumulates rows and renders them aligned.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends one row; cells are formatted with %v, floats with two
// decimals, and large integers with thousands separators.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = format(c)
	}
	t.rows = append(t.rows, row)
}

func format(c any) string {
	switch v := c.(type) {
	case float64:
		if math.Abs(v) >= 1000 {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.2f", v)
	case uint64:
		return Comma(v)
	case int:
		if v >= 10000 || v <= -10000 {
			return Comma(uint64(v))
		}
		return fmt.Sprint(v)
	default:
		return fmt.Sprint(c)
	}
}

// Comma renders n with thousands separators.
func Comma(n uint64) string {
	s := fmt.Sprint(n)
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cells returns the formatted table contents: the header row followed by
// every data row. The slices are copies; mutating them does not affect
// the table.
func (t *Table) Cells() [][]string {
	out := make([][]string, 0, len(t.rows)+1)
	out = append(out, append([]string(nil), t.Columns...))
	for _, r := range t.rows {
		out = append(out, append([]string(nil), r...))
	}
	return out
}

// CSV renders the table as RFC 4180 CSV: one header row, then the data
// rows, with the same formatted cells the text renderer prints. The
// title is not part of the CSV payload (it lives in the file name).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table, the
// title as a bold caption line above it. Pipes in cells are escaped.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	b.WriteByte('|')
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		// A short row (tables sometimes leave trailing cells off a MEAN
		// line) still renders with the full column count.
		row := append([]string(nil), r...)
		for len(row) < len(t.Columns) {
			row = append(row, "")
		}
		writeRow(row)
	}
	return b.String()
}

// GeoMean returns the geometric mean of positive values (the paper's MEAN
// rows are arithmetic; both are provided).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
