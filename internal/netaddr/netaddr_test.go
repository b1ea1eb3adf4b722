package netaddr

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestParseV4(t *testing.T) {
	cases := []struct {
		in   string
		want V4
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"128.125.7.9", FromBytes(128, 125, 7, 9), true},
		{"1.2.3.4", 0x01020304, true},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"", 0, false},
		{"a.b.c.d", 0, false},
		{"1..2.3", 0, false},
		{"-1.2.3.4", 0, false},
	}
	for _, c := range cases {
		got, err := ParseV4(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseV4(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseV4(%q) succeeded; want error", c.in)
		}
	}
}

func TestV4StringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		v := V4(a)
		back, err := ParseV4(v.String())
		return err == nil && back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestV4BytesRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		v := V4(a)
		b := v.Bytes()
		back, ok := FromSlice(b[:])
		return ok && back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixBasics(t *testing.T) {
	p := MustParsePrefix("128.125.0.0/16")
	if p.Size() != 65536 {
		t.Errorf("Size = %d", p.Size())
	}
	if got := p.Last(); got != MustParseV4("128.125.255.255") {
		t.Errorf("Last = %v", got)
	}
	if !p.Contains(MustParseV4("128.125.44.3")) {
		t.Error("Contains inside failed")
	}
	if p.Contains(MustParseV4("128.126.0.0")) {
		t.Error("Contains outside succeeded")
	}
	if s := p.String(); s != "128.125.0.0/16" {
		t.Errorf("String = %q", s)
	}
}

func TestPrefixMasksBase(t *testing.T) {
	p, err := NewPrefix(MustParseV4("10.1.2.3"), 24)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base() != MustParseV4("10.1.2.0") {
		t.Errorf("Base = %v", p.Base())
	}
}

func TestPrefixInvalid(t *testing.T) {
	if _, err := NewPrefix(0, 33); err == nil {
		t.Error("length 33 accepted")
	}
	if _, err := NewPrefix(0, -1); err == nil {
		t.Error("length -1 accepted")
	}
	for _, s := range []string{"10.0.0.0", "10.0.0.0/ab", "bogus/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) accepted", s)
		}
	}
}

func TestPrefixZeroLength(t *testing.T) {
	p := MustParsePrefix("0.0.0.0/0")
	if !p.Contains(MustParseV4("255.255.255.255")) || !p.Contains(0) {
		t.Error("/0 should contain everything")
	}
	if p.Size() != 1<<32 {
		t.Errorf("Size = %d", p.Size())
	}
}

func TestPrefixAddrs(t *testing.T) {
	p := MustParsePrefix("192.168.1.0/30")
	got := p.Addrs()
	if len(got) != 4 || got[0] != MustParseV4("192.168.1.0") || got[3] != MustParseV4("192.168.1.3") {
		t.Errorf("Addrs = %v", got)
	}
}

func TestRange(t *testing.T) {
	r := Range{Lo: MustParseV4("10.0.0.10"), Hi: MustParseV4("10.0.0.20")}
	if r.Size() != 10 {
		t.Errorf("Size = %d", r.Size())
	}
	if !r.Contains(MustParseV4("10.0.0.10")) || r.Contains(MustParseV4("10.0.0.20")) {
		t.Error("half-open bounds wrong")
	}
	if r.At(3) != MustParseV4("10.0.0.13") {
		t.Errorf("At(3) = %v", r.At(3))
	}
}

func TestRangeAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	r := Range{Lo: 0, Hi: 4}
	r.At(4)
}

func TestSetBasics(t *testing.T) {
	var s Set // zero value must be usable
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("zero set not empty")
	}
	s.Add(1)
	s.Add(1)
	s.Add(2)
	if s.Len() != 2 || !s.Contains(1) || !s.Contains(2) {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4)
	if got := a.Union(b); got.Len() != 4 {
		t.Errorf("Union len = %d", got.Len())
	}
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(3) {
		t.Errorf("Intersect = %v", got.Sorted())
	}
	if got := a.Diff(b); got.Len() != 2 || got.Contains(3) {
		t.Errorf("Diff = %v", got.Sorted())
	}
	if got := b.Intersect(a); got.Len() != 1 {
		t.Errorf("Intersect not symmetric: %v", got.Sorted())
	}
}

func TestSetAlgebraLaws(t *testing.T) {
	// Property: for random sets A and B,
	// |A∪B| = |A| + |B| - |A∩B| and A = (A∩B) ∪ (A\B).
	f := func(xs, ys []uint16) bool {
		a, b := NewSet(), NewSet()
		for _, x := range xs {
			a.Add(V4(x))
		}
		for _, y := range ys {
			b.Add(V4(y))
		}
		u, i := a.Union(b), a.Intersect(b)
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		return slices.Equal(i.Union(a.Diff(b)).Sorted(), a.Sorted())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetSorted(t *testing.T) {
	s := NewSet(5, 1, 3)
	got := s.Sorted()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("Sorted = %v", got)
	}
}

func BenchmarkSetAdd(b *testing.B) {
	s := NewSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(V4(i & 0xFFFF))
	}
}

func BenchmarkParseV4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseV4("128.125.251.7"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSetCloneShared(t *testing.T) {
	a1, a2, a3 := MustParseV4("10.0.0.1"), MustParseV4("10.0.0.2"), MustParseV4("10.0.0.3")

	// Mutating the original after a shared clone must not reach the clone.
	s := NewSet(a1, a2)
	c := s.CloneShared()
	if !slices.Equal(c.Sorted(), s.Sorted()) {
		t.Fatal("shared clone differs from original")
	}
	s.Add(a3)
	if c.Len() != 2 || c.Contains(a3) {
		t.Error("mutating the original reached the shared clone")
	}

	// And the other direction: the clone copies before its first write.
	s = NewSet(a1, a2)
	c = s.CloneShared()
	c.Add(a3)
	if s.Len() != 2 || s.Contains(a3) {
		t.Error("mutating the shared clone reached the original")
	}

	var zero Set
	if cz := zero.CloneShared(); cz.Len() != 0 {
		t.Error("zero-set shared clone not empty")
	}
}
