package core

import (
	"math"
	"time"
)

// Instant is a point on the observation clock in one word: Unix
// nanoseconds with the sign bit flipped, so unsigned < on instants is
// Before on times and the zero value, below every other, is time.Time{}.
// Resident state (records, peer history, activity trails, the shards'
// live-probe-answer tables, the federation aggregator's site cells) stores
// it in place of the 24-byte, pointer-carrying time.Time; ToInstant and
// Time convert where a value crosses an API, a wire form or a checkpoint.
// A non-zero time outside the representable range clamps to the nearest
// end instead of wrapping — so a time before year 1, which no clock here
// produces, orders after time.Time{}.
type Instant uint64

const (
	instantBias = Instant(1) << 63
	minInstant  = Instant(1)              // 1677-09-21T00:12:43.145224193Z; UnixNano's first slot is zero's
	maxInstant  = Instant(math.MaxUint64) // 2262-04-11T23:47:16.854775807Z
)

var minInstantTime, maxInstantTime = minInstant.Time(), maxInstant.Time()

// ToInstant packs t. The location and any monotonic reading are dropped.
func ToInstant(t time.Time) Instant {
	switch {
	case t.IsZero():
		return 0
	case !t.After(minInstantTime):
		return minInstant
	case !t.Before(maxInstantTime):
		return maxInstant
	}
	return Instant(t.UnixNano()) ^ instantBias
}

// Time unpacks i, always in UTC (what trace.Reader and the federation wire
// produce).
func (i Instant) Time() time.Time {
	if i == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(i^instantBias)).UTC()
}

// toInstants packs a time slice into a fresh instant slice.
func toInstants(ts []time.Time) []Instant {
	out := make([]Instant, len(ts))
	for i, t := range ts {
		out[i] = ToInstant(t)
	}
	return out
}

// toTimes renders an instant slice as a fresh time slice (nil for empty).
func toTimes(is []Instant) []time.Time {
	if len(is) == 0 {
		return nil
	}
	out := make([]time.Time, len(is))
	for i, at := range is {
		out[i] = at.Time()
	}
	return out
}
