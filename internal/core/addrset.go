package core

import (
	"iter"
	"math/bits"
	"slices"
	"unsafe"

	"servdisc/internal/netaddr"
)

// addrSet is a set of IPv4 addresses at close to their payload size, in
// whichever of two forms is smaller. A table is a power-of-two array of
// 4-byte slots, probed linearly from a multiplicative hash and doubled once
// past 3/4 full; slot value 0 means empty. A bitmap is one bit per address
// over the members' span: slots[0] is its base, a multiple of 32, and bit i
// of slots[1+j] is base+32j+i. A set starts as a table and becomes a bitmap
// at a doubling if that takes no more bytes than the doubled table. A
// member outside the span extends it, with room for a quarter as many words
// again (a sweep copies each word ≈ 5 times), unless the span would outgrow
// the table the members then need: the set becomes that table instead. So
// a bitmap is never the larger form, a round trip takes a doubling of the
// members, and the byte comparison is the whole policy. A flag holds
// 0.0.0.0 in both. It backs the engine's resident address sets (a
// service's peers past peerInline, a promoted scan window's two contact
// sets), where a Go map spends 15–16 B per member; a scanner's sweep makes
// its sets bitmaps (DESIGN.md §7). The zero value is empty.
type addrSet struct {
	slots []netaddr.V4 // the table's slots, or the bitmap's base and words
	used  uint32       // members held in slots: all of them but 0.0.0.0
	zero  uint8        // 1 when 0.0.0.0 is a member
	bits  bool         // slots is a bitmap
}

const _ = uint(32-unsafe.Sizeof(addrSet{})) + uint(unsafe.Sizeof(addrSet{})-32) // == 32

// add inserts a and reports whether it was new.
func (s *addrSet) add(a netaddr.V4) bool {
	if a == 0 {
		was := s.zero
		s.zero = 1
		return was == 0
	}
	if s.slots == nil {
		s.slots = make([]netaddr.V4, 8)
	}
	// Unsigned, an address below a bitmap's base is past its end too.
	if s.bits && int((a-s.slots[0])>>5) >= len(s.slots)-1 {
		s.extend(a)
	}
	if !s.put(a) {
		return false
	}
	if s.used++; !s.bits && 4*int(s.used) > 3*len(s.slots) {
		s.grow()
	}
	return true
}

// put adds a to the table, or to the bitmap, whose span holds it, and
// reports whether it was not there.
func (s *addrSet) put(a netaddr.V4) bool {
	if s.bits {
		w, bit := &s.slots[1+(a-s.slots[0])>>5], netaddr.V4(1)<<(a&31)
		was := *w & bit
		*w |= bit
		return was == 0
	}
	i := home(a, len(s.slots))
	for ; s.slots[i] != 0; i = (i + 1) & (len(s.slots) - 1) {
		if s.slots[i] == a {
			return false
		}
	}
	s.slots[i] = a
	return true
}

// grow doubles the table, or replaces it with a bitmap over the members'
// span if that takes no more bytes.
func (s *addrSet) grow() {
	old := s.slots
	lo, hi := ^netaddr.V4(0), netaddr.V4(0)
	for a := range members(old, false) {
		lo, hi = min(lo, a), max(hi, a)
	}
	if words := int(hi>>5-lo>>5) + 1; 1+words <= 2*len(old) {
		s.slots, s.bits = make([]netaddr.V4, 1+words), true
		s.slots[0] = lo &^ 31
	} else {
		s.slots = make([]netaddr.V4, 2*len(old))
	}
	for a := range members(old, false) {
		s.put(a)
	}
}

// extend widens the bitmap's span to hold a, or, if that span would take
// more bytes than the table holding one more member, makes the set that
// table.
func (s *addrSet) extend(a netaddr.V4) {
	old, m := s.slots, tableSlots(int(s.used)+1)
	w0, n, wa := int(old[0]>>5), len(old)-1, int(a>>5)
	lo, end := min(w0, wa), max(w0+n, wa+1)
	if 1+end-lo > m {
		s.slots, s.bits = make([]netaddr.V4, m), false
		for b := range members(old, true) {
			s.put(b)
		}
		return
	}
	// Room for a quarter as many words again in the direction of growth,
	// within that table's bytes and the address space.
	if grown := max(end-lo, min(n+n/4, m-1)); wa < w0 {
		lo = max(0, end-grown)
	} else {
		end = min(1<<27, lo+grown)
	}
	s.slots = make([]netaddr.V4, 1+end-lo)
	s.slots[0] = netaddr.V4(lo) << 5
	copy(s.slots[1+w0-lo:], old[1:])
}

// tableSlots is the size of the table that holds k members short of its
// next doubling.
func tableSlots(k int) int {
	m := 8
	for 4*k > 3*m {
		m *= 2
	}
	return m
}

// members yields the members held in slots: a table's, or, with bitmap,
// a bitmap's, ascending.
func members(slots []netaddr.V4, bitmap bool) iter.Seq[netaddr.V4] {
	return func(yield func(netaddr.V4) bool) {
		if !bitmap {
			for _, a := range slots {
				if a != 0 && !yield(a) {
					return
				}
			}
			return
		}
		for j, w := range slots[1:] {
			for ; w != 0; w &= w - 1 {
				if !yield(slots[0] + netaddr.V4(32*j+bits.TrailingZeros32(uint32(w)))) {
					return
				}
			}
		}
	}
}

// home is a's home slot in a power-of-two table of n: the hash's top bits
// pick it (Fibonacci hashing), so a run of consecutive addresses spreads out.
func home(a netaddr.V4, n int) int { return int(uint64(uint32(a)*0x9e3779b9) * uint64(n) >> 32) }

func (s *addrSet) len() int { return int(s.used) + int(s.zero) }

// sorted returns the members ascending in a fresh slice, nil when empty.
func (s *addrSet) sorted() []netaddr.V4 {
	if s.len() == 0 {
		return nil
	}
	out := make([]netaddr.V4, s.zero, s.len()) // 0.0.0.0, if a member, is out[0]
	out = slices.AppendSeq(out, members(s.slots, s.bits))
	if !s.bits {
		slices.Sort(out)
	}
	return out
}

// sourceTable holds the scan tracker's sources in 16-byte slots, where a Go
// map of []uint32 spent ≈ 63 B a source: probed and grown as addrSet is, a
// slot empty while its w is nil. Nothing is ever deleted.
type sourceTable struct {
	slots []srcSlot
	used  int
}

// srcSlot is one source and its words, as a length and a pointer to the
// first. The capacity is derived, (n+3)&^3: exactly what growWords
// allocates, and a run shrunk in place keeps its larger allocation, so it
// never exceeds the real one — which makes words sound. Only a run from
// words or growWords may be set.
type srcSlot struct {
	src netaddr.V4
	n   uint32
	w   *uint32
}

const _ = uint(16-unsafe.Sizeof(srcSlot{})) + uint(unsafe.Sizeof(srcSlot{})-16) // == 16

func (sl *srcSlot) words() []uint32 { return unsafe.Slice(sl.w, (sl.n+3)&^3)[:sl.n] }

func (sl *srcSlot) set(s []uint32) { sl.n, sl.w = uint32(len(s)), unsafe.SliceData(s) }

// find returns src's slot, or the empty one where it would go.
func (t *sourceTable) find(src netaddr.V4) *srcSlot {
	i := home(src, len(t.slots))
	for t.slots[i].w != nil && t.slots[i].src != src {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return &t.slots[i]
}

// slot returns src's slot, listing src if need be: the caller must set a
// new slot's words before the next call.
func (t *sourceTable) slot(src netaddr.V4) *srcSlot {
	sl := t.find(src)
	if sl.w != nil {
		return sl
	}
	if t.used++; 4*t.used > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]srcSlot, 2*len(old))
		for _, o := range old {
			if o.w != nil {
				*t.find(o.src) = o
			}
		}
		sl = t.find(src)
	}
	sl.src = src
	return sl
}

// all yields every listed source.
func (t *sourceTable) all() iter.Seq[netaddr.V4] {
	return func(yield func(netaddr.V4) bool) {
		for _, sl := range t.slots {
			if sl.w != nil && !yield(sl.src) {
				return
			}
		}
	}
}
