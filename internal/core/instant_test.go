package core

import (
	"math"
	"testing"
	"time"
)

// TestInstantConversions pins the representation's conventions: zero is
// time.Time{}, the Unix epoch is an ordinary instant, the range ends
// clamp instead of wrapping, order survives every step, and a location is
// dropped (same instant, rendered as UTC).
func TestInstantConversions(t *testing.T) {
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	pacific := time.FixedZone("UTC-8", -8*3600)
	cases := []struct {
		name string
		in   time.Time
		want time.Time // what .Time() must render
	}{
		{"zero", time.Time{}, time.Time{}},
		{"year one, one ns in", time.Time{}.Add(1), lo.Add(1)},
		{"before the range", lo.Add(-time.Hour), lo.Add(1)},
		{"one ns before the range", lo.Add(-1), lo.Add(1)},
		{"first UnixNano (zero's slot)", lo, lo.Add(1)},
		{"second UnixNano", lo.Add(1), lo.Add(1)},
		{"1969", time.Unix(-1, 999_999_999), time.Unix(-1, 999_999_999)},
		{"Unix epoch exactly", time.Unix(0, 0), time.Unix(0, 0)},
		{"trace time", t0, t0},
		{"non-UTC location", t0.In(pacific), t0},
		{"last UnixNano", hi, hi},
		{"one ns past the range", hi.Add(1), hi},
		{"year 9999", time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), hi},
	}
	prev := Instant(0)
	for i, c := range cases {
		at := ToInstant(c.in)
		got := at.Time()
		if !got.Equal(c.want) {
			t.Errorf("%s: ToInstant(%v).Time() = %v, want %v", c.name, c.in, got, c.want)
		}
		if got.Location() != time.UTC {
			t.Errorf("%s: rendered in %v, want UTC", c.name, got.Location())
		}
		if (at == 0) != c.in.IsZero() {
			t.Errorf("%s: Instant %d, but IsZero = %v", c.name, at, c.in.IsZero())
		}
		// The table is in time order, so instants must never step back.
		if i > 0 && at < prev {
			t.Errorf("%s: Instant %d orders before its predecessor's %d", c.name, at, prev)
		}
		prev = at
	}
	if ToInstant(time.Unix(0, 0)) <= ToInstant(time.Unix(0, -1)) {
		t.Error("the Unix epoch does not order after the nanosecond before it")
	}
}

// FuzzInstantOrder: < on instants is Before on times and == is Equal for
// any two times inside the range (zero included); outside it a clamp may
// merge neighbours but never reorders them. Inside the range the round
// trip is exact.
func FuzzInstantOrder(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int64(1), false, false)
	f.Add(int64(0), int64(0), int64(0), int64(0), true, false)
	f.Add(int64(1158660000), int64(5), int64(1158660000), int64(4), false, false)
	f.Add(int64(-9223372036), int64(0), int64(9223372036), int64(999_999_999), false, false)
	f.Add(int64(-62135596800), int64(1), int64(1<<40), int64(0), false, true)
	inRange := func(t time.Time) bool {
		return t.IsZero() || (!t.Before(minInstant.Time()) && !t.After(maxInstant.Time()))
	}
	f.Fuzz(func(t *testing.T, asec, ansec, bsec, bnsec int64, azero, bzero bool) {
		mk := func(sec, nsec int64, zero bool) time.Time {
			if zero {
				return time.Time{}
			}
			// Keep sec where time.Unix cannot overflow its own epoch shift.
			return time.Unix(sec%(1<<50), nsec%1e9)
		}
		a, b := mk(asec, ansec, azero), mk(bsec, bnsec, bzero)
		if a.Before(time.Time{}) || b.Before(time.Time{}) {
			t.Skip("before year 1: clamps up past time.Time{}, by design")
		}
		ia, ib := ToInstant(a), ToInstant(b)
		if inRange(a) && inRange(b) {
			if (ia < ib) != a.Before(b) || (ia == ib) != a.Equal(b) {
				t.Fatalf("%v vs %v: instants %d, %d disagree with Before=%v Equal=%v",
					a, b, ia, ib, a.Before(b), a.Equal(b))
			}
		} else if (a.Before(b) && ia > ib) || (b.Before(a) && ib > ia) {
			t.Fatalf("%v vs %v: clamped instants %d, %d reorder them", a, b, ia, ib)
		}
		for _, x := range []time.Time{a, b} {
			if inRange(x) && !ToInstant(x).Time().Equal(x) {
				t.Fatalf("%v round-trips to %v", x, ToInstant(x).Time())
			}
		}
	})
}
