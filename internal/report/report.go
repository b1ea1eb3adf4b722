// Package report renders experiment results: fixed-width ASCII tables in
// the paper's style and CSV series files for the figures (one column per
// curve, gnuplot/spreadsheet-ready).
package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"servdisc/internal/stats"
)

// Table is a simple fixed-width table with a caption.
type Table struct {
	Caption string
	Headers []string
	rows    [][]string
}

// NewTable builds a table with the given caption and column headers.
func NewTable(caption string, headers ...string) *Table {
	return &Table{Caption: caption, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// Rows returns the formatted rows.
func (t *Table) Rows() [][]string { return t.rows }

// Render writes the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
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
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Figure is a set of time series sharing one x-axis.
type Figure struct {
	Caption string
	Series  []*stats.Series
	// Step controls resampling for rendering and CSV output.
	Step time.Duration
}

// NewFigure builds a figure.
func NewFigure(caption string, step time.Duration, series ...*stats.Series) *Figure {
	return &Figure{Caption: caption, Step: step, Series: series}
}

// bounds finds the time range spanned by all series.
func (f *Figure) bounds() (time.Time, time.Time, bool) {
	var lo, hi time.Time
	found := false
	for _, s := range f.Series {
		pts := s.Points()
		if len(pts) == 0 {
			continue
		}
		if !found || pts[0].T.Before(lo) {
			lo = pts[0].T
		}
		if !found || pts[len(pts)-1].T.After(hi) {
			hi = pts[len(pts)-1].T
		}
		found = true
	}
	return lo, hi, found
}

// WriteCSV emits "time,<series names...>" rows resampled at Step.
func (f *Figure) WriteCSV(w io.Writer) error {
	lo, hi, ok := f.bounds()
	if !ok {
		_, err := fmt.Fprintln(w, "time")
		return err
	}
	names := make([]string, len(f.Series))
	for i, s := range f.Series {
		names[i] = s.Name
	}
	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	step := f.Step
	if step <= 0 {
		step = time.Hour
	}
	for t := lo; !t.After(hi); t = t.Add(step) {
		cells := make([]string, 0, len(f.Series)+1)
		cells = append(cells, t.UTC().Format(time.RFC3339))
		for _, s := range f.Series {
			cells = append(cells, fmt.Sprintf("%.3f", s.At(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Render summarizes each curve textually: final value plus a coarse sparkline.
func (f *Figure) Render() string {
	var b strings.Builder
	if f.Caption != "" {
		fmt.Fprintf(&b, "%s\n", f.Caption)
	}
	lo, hi, ok := f.bounds()
	if !ok {
		b.WriteString("(no data)\n")
		return b.String()
	}
	span := hi.Sub(lo)
	const buckets = 24
	// Longest name for alignment.
	width := 0
	for _, s := range f.Series {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	// Global max for scaling.
	var max float64
	for _, s := range f.Series {
		if v := s.Last(); v > max {
			max = v
		}
	}
	marks := []rune(" .:-=+*#%@")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-*s |", width, s.Name)
		for i := 0; i < buckets; i++ {
			t := lo.Add(span * time.Duration(i) / time.Duration(buckets-1))
			v := s.At(t)
			idx := 0
			if max > 0 {
				idx = int(v / max * float64(len(marks)-1))
			}
			if idx >= len(marks) {
				idx = len(marks) - 1
			}
			b.WriteRune(marks[idx])
		}
		fmt.Fprintf(&b, "| final=%.1f\n", s.Last())
	}
	fmt.Fprintf(&b, "%-*s  %s .. %s\n", width, "", lo.UTC().Format("01-02 15:04"), hi.UTC().Format("01-02 15:04"))
	return b.String()
}
