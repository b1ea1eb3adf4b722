package stats

import (
	"fmt"
	"sort"
	"time"
)

// Point is one sample of a time series: a timestamp and a value.
type Point struct {
	T time.Time
	V float64
}

// Series is an append-mostly time series with helpers for the cumulative
// discovery curves the paper plots. Points need not arrive in order; Sort
// (or any accessor that requires order) normalizes.
type Series struct {
	Name   string
	pts    []Point
	sorted bool
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name, sorted: true}
}

// Add appends a sample.
func (s *Series) Add(t time.Time, v float64) {
	if n := len(s.pts); s.sorted && n > 0 && s.pts[n-1].T.After(t) {
		s.sorted = false
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.pts) }

// Sort orders samples by time (stable for equal timestamps).
func (s *Series) Sort() {
	if !s.sorted {
		sort.SliceStable(s.pts, func(i, j int) bool { return s.pts[i].T.Before(s.pts[j].T) })
		s.sorted = true
	}
}

// Points returns the ordered samples. The returned slice is owned by the
// series; callers must not mutate it.
func (s *Series) Points() []Point {
	s.Sort()
	return s.pts
}

// At returns the value in effect at time t (the most recent sample at or
// before t), or 0 if t precedes the first sample. This treats the series as
// a step function, which matches cumulative-count semantics.
func (s *Series) At(t time.Time) float64 {
	s.Sort()
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T.After(t) })
	if i == 0 {
		return 0
	}
	return s.pts[i-1].V
}

// Last returns the final value, or 0 for an empty series.
func (s *Series) Last() float64 {
	s.Sort()
	if len(s.pts) == 0 {
		return 0
	}
	return s.pts[len(s.pts)-1].V
}

// FirstReaching returns the earliest time the series value is >= v, and
// ok=false if it never reaches it. Used for "time to find 99% of
// flow-weighted servers" style questions (Figure 1).
func (s *Series) FirstReaching(v float64) (time.Time, bool) {
	s.Sort()
	for _, p := range s.pts {
		if p.V >= v {
			return p.T, true
		}
	}
	return time.Time{}, false
}

// Scale returns a copy with every value multiplied by f (e.g. to convert
// counts to percent-of-union).
func (s *Series) Scale(f float64) *Series {
	out := NewSeries(s.Name)
	for _, p := range s.Points() {
		out.Add(p.T, p.V*f)
	}
	return out
}

// Percent formats v as a percentage of total in the paper's style:
// two significant digits ("19%", "2.3%", "0.39%").
func Percent(v, total int) string {
	if total == 0 {
		return "n/a"
	}
	p := 100 * float64(v) / float64(total)
	switch {
	case p >= 10:
		return fmt.Sprintf("%.0f%%", p)
	case p >= 1:
		return fmt.Sprintf("%.1f%%", p)
	default:
		return fmt.Sprintf("%.2f%%", p)
	}
}
