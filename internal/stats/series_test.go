package stats

import (
	"testing"
	"time"
)

var t0 = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)

func TestSeriesStepSemantics(t *testing.T) {
	s := NewSeries("disc")
	s.Add(t0, 1)
	s.Add(t0.Add(time.Hour), 5)
	s.Add(t0.Add(2*time.Hour), 7)

	if got := s.At(t0.Add(-time.Minute)); got != 0 {
		t.Errorf("before first = %v", got)
	}
	if got := s.At(t0); got != 1 {
		t.Errorf("at first = %v", got)
	}
	if got := s.At(t0.Add(90 * time.Minute)); got != 5 {
		t.Errorf("mid = %v", got)
	}
	if got := s.Last(); got != 7 {
		t.Errorf("Last = %v", got)
	}
}

func TestSeriesOutOfOrderAdds(t *testing.T) {
	s := NewSeries("x")
	s.Add(t0.Add(2*time.Hour), 3)
	s.Add(t0, 1)
	s.Add(t0.Add(time.Hour), 2)
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T.Before(pts[i-1].T) {
			t.Fatal("points not sorted")
		}
	}
	if s.At(t0.Add(30*time.Minute)) != 1 {
		t.Error("At after out-of-order insert wrong")
	}
}

func TestSeriesFirstReaching(t *testing.T) {
	s := NewSeries("x")
	s.Add(t0, 10)
	s.Add(t0.Add(time.Hour), 50)
	s.Add(t0.Add(2*time.Hour), 99)

	when, ok := s.FirstReaching(50)
	if !ok || !when.Equal(t0.Add(time.Hour)) {
		t.Errorf("FirstReaching(50) = %v, %v", when, ok)
	}
	if _, ok := s.FirstReaching(1000); ok {
		t.Error("FirstReaching(1000) should fail")
	}
}

func TestSeriesScale(t *testing.T) {
	s := NewSeries("x")
	s.Add(t0, 4)
	s.Add(t0.Add(time.Hour), 8)
	sc := s.Scale(0.5)
	if sc.Last() != 4 {
		t.Errorf("Scale Last = %v", sc.Last())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Last() != 0 || s.At(t0) != 0 {
		t.Error("empty series should read 0")
	}
	if _, ok := s.FirstReaching(1); ok {
		t.Error("empty FirstReaching should fail")
	}
}

func TestPercentFormatting(t *testing.T) {
	cases := []struct {
		v, total int
		want     string
	}{
		{1707, 1748, "98%"},
		{327, 1748, "19%"},
		{41, 1748, "2.3%"},
		{2, 504, "0.40%"},
		{0, 100, "0.00%"},
		{5, 0, "n/a"},
	}
	for _, c := range cases {
		if got := Percent(c.v, c.total); got != c.want {
			t.Errorf("Percent(%d,%d) = %q, want %q", c.v, c.total, got, c.want)
		}
	}
}
