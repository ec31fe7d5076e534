// Package tables renders small result tables as aligned plain text or
// CSV. The experiment commands use it to print the reproduction of
// the paper's Tables I and II and the Fig. 4 data series.
package tables

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a rectangular table with a header row.
type Table struct {
	// Title is printed above the table when non-empty.
	Title string
	// Headers labels the columns.
	Headers []string
	rows    [][]string
}

// New creates a table with the given column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. The number of cells must match the header count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Headers) {
		return fmt.Errorf("tables: row has %d cells, want %d", len(cells), len(t.Headers))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// MustAddRow appends a row and panics on arity mismatch; for literal rows.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table as CSV (headers first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return fmt.Errorf("tables: csv header: %w", err)
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("tables: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float with the given number of decimals; the standard cell
// formatter used by the experiment commands.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}
