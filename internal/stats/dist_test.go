package stats

import (
	"math"
	"testing"
)

func TestZipfHeavyTail(t *testing.T) {
	// With s=1.0 over 1000 ranks, rank 1 should receive ~13% of mass and the
	// top 10 ranks roughly 40%.
	w := ZipfWeights(1.0, 1000)
	var p10 float64
	for _, v := range w[:10] {
		p10 += v
	}
	if w[0] < 0.10 || w[0] > 0.17 {
		t.Errorf("P(rank 1) = %v", w[0])
	}
	if p10 < 0.35 || p10 > 0.45 {
		t.Errorf("P(rank<=10) = %v", p10)
	}
}

func TestZipfWeightsHelper(t *testing.T) {
	w := ZipfWeights(1.0, 10)
	if len(w) != 10 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v >= w[i-1] {
			t.Error("weights not strictly decreasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v", sum)
	}
}

func TestDiurnalProfile(t *testing.T) {
	p := DefaultDiurnal()
	if p.At(12) <= p.At(3) {
		t.Error("midday should exceed 3am")
	}
	// Interpolation: value at 12.5 between buckets 12 and 13.
	v := p.At(12.5)
	lo, hi := math.Min(p[12], p[13]), math.Max(p[12], p[13])
	if v < lo-1e-9 || v > hi+1e-9 {
		t.Errorf("At(12.5) = %v outside [%v,%v]", v, lo, hi)
	}
	// Wrap-around and negative hours.
	if p.At(36) != p.At(12) {
		t.Error("At should wrap at 24h")
	}
	if math.Abs(p.At(-12)-p.At(12)) > 1e-9 {
		t.Error("negative hours should wrap")
	}
}
