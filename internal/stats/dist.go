package stats

import "math"

// ZipfWeights returns normalized Zipf(s) weights for n ranks: rank k
// gets mass ∝ 1/k^s. The campus model splits its popular servers' share
// of flows by these weights, the busy head of the heavy-tailed request
// rates the paper infers in Section 4.2.1.
func ZipfWeights(s float64, n int) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		w[k-1] = 1 / math.Pow(float64(k), s)
		sum += w[k-1]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// DiurnalProfile modulates a rate over the day. Values are multipliers per
// hour-of-day; the profile the campus simulator uses peaks mid-day,
// reflecting the paper's Section 5.1 finding that daytime scans see ~3%
// more hosts than night scans.
type DiurnalProfile [24]float64

// DefaultDiurnal approximates a campus weekday: low load 02:00-06:00,
// ramp through the morning, peak 11:00-17:00, evening shoulder.
func DefaultDiurnal() DiurnalProfile {
	return DiurnalProfile{
		0.45, 0.35, 0.25, 0.22, 0.22, 0.25,
		0.35, 0.55, 0.80, 1.00, 1.15, 1.25,
		1.30, 1.30, 1.25, 1.20, 1.15, 1.05,
		0.95, 0.90, 0.85, 0.75, 0.65, 0.55,
	}
}

// At returns the multiplier for the given hour offset (in hours, may exceed
// 24; fractional hours interpolate linearly between buckets).
func (p DiurnalProfile) At(hours float64) float64 {
	h := math.Mod(hours, 24)
	if h < 0 {
		h += 24
	}
	i := int(h) % 24
	j := (i + 1) % 24
	frac := h - math.Floor(h)
	return p[i]*(1-frac) + p[j]*frac
}

// Mean returns the average multiplier across the day.
func (p DiurnalProfile) Mean() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s / 24
}
