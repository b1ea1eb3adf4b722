package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"servdisc/internal/stats"
)

var t0 = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)

func TestTableRender(t *testing.T) {
	tab := NewTable("Table X: demo", "name", "count", "pct")
	tab.AddRow("alpha", 12, "40%")
	tab.AddRow("beta-longer-name", 3, "10%")
	out := tab.Render()
	if !strings.Contains(out, "Table X: demo") {
		t.Error("caption missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // caption, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: each line has the same prefix width up to col 2.
	if !strings.HasPrefix(lines[3], "alpha            ") {
		t.Errorf("row not padded: %q", lines[3])
	}
	if len(tab.Rows()) != 2 {
		t.Errorf("Rows = %d", len(tab.Rows()))
	}
}

func mkSeries(name string, vals ...float64) *stats.Series {
	s := stats.NewSeries(name)
	for i, v := range vals {
		s.Add(t0.Add(time.Duration(i)*time.Hour), v)
	}
	return s
}

func TestFigureCSV(t *testing.T) {
	f := NewFigure("fig", time.Hour,
		mkSeries("a", 1, 2, 3),
		mkSeries("b", 10, 20, 30))
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 { // header + 3 samples
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasSuffix(lines[1], "1.000,10.000") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.HasSuffix(lines[3], "3.000,30.000") {
		t.Errorf("row 3 = %q", lines[3])
	}
}

func TestFigureCSVEmpty(t *testing.T) {
	f := NewFigure("empty", time.Hour)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "time" {
		t.Errorf("empty CSV = %q", buf.String())
	}
}

func TestFigureRender(t *testing.T) {
	f := NewFigure("fig caption", time.Hour, mkSeries("curve", 0, 50, 100))
	out := f.Render()
	if !strings.Contains(out, "fig caption") || !strings.Contains(out, "final=100.0") {
		t.Errorf("render:\n%s", out)
	}
	empty := NewFigure("none", time.Hour).Render()
	if !strings.Contains(empty, "no data") {
		t.Errorf("empty render = %q", empty)
	}
}
