package core

import (
	"iter"
	"slices"
	"unsafe"

	"servdisc/internal/netaddr"
)

// addrSet is a set of IPv4 addresses at close to their payload size: a
// power-of-two array of 4-byte slots, probed linearly from a multiplicative
// hash and doubled once past 3/4 full. Slot value 0 means empty, so a flag
// holds 0.0.0.0. It backs the engine's resident address sets (a service's
// peers past peerInline, a promoted scan window's two contact sets), where a
// Go map spends 15–16 B per member (DESIGN.md §7). The zero value is empty.
type addrSet struct {
	slots []netaddr.V4
	used  uint32 // members held in slots: all of them but 0.0.0.0
	zero  uint32 // 1 when 0.0.0.0 is a member
}

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
	i := home(a, len(s.slots))
	for ; s.slots[i] != 0; i = (i + 1) & (len(s.slots) - 1) {
		if s.slots[i] == a {
			return false
		}
	}
	s.slots[i] = a
	if s.used++; 4*int(s.used) > 3*len(s.slots) {
		old := s.slots
		s.slots, s.used = make([]netaddr.V4, 2*len(old)), 0
		for _, b := range old {
			if b != 0 {
				s.add(b)
			}
		}
	}
	return true
}

// home is a's home slot in a power-of-two table of n: the hash's top bits
// pick it (Fibonacci hashing), so a run of consecutive addresses spreads out.
func home(a netaddr.V4, n int) int { return int(uint64(uint32(a)*0x9e3779b9) * uint64(n) >> 32) }

func (s *addrSet) len() int { return int(s.used + s.zero) }

// sorted returns the members ascending in a fresh slice, nil when empty.
func (s *addrSet) sorted() []netaddr.V4 {
	if s.len() == 0 {
		return nil
	}
	out := make([]netaddr.V4, s.zero, s.len()) // 0.0.0.0, if a member, is out[0]
	for _, a := range s.slots {
		if a != 0 {
			out = append(out, a)
		}
	}
	slices.Sort(out)
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
