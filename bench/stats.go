package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the middle pair for an even
// count); 0 for no samples. The input is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks; 0 for no samples. The input is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// windowRates turns a sorted list of completion times into per-window
// rates (events per second), dropping the partial last window. Throughput
// metrics are the median of these, so one noisy-neighbour stall moves one
// window, not the result.
func windowRates(done []time.Duration, window time.Duration) []float64 {
	if len(done) == 0 || window <= 0 {
		return nil
	}
	n := int(done[len(done)-1] / window)
	counts := make([]int, n)
	for _, d := range done {
		if w := int(d / window); w < n {
			counts[w]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / window.Seconds()
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
