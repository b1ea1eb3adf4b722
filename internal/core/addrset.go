package core

import (
	"slices"

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
	// The hash's top bits pick the home slot (Fibonacci hashing), so a run
	// of consecutive addresses spreads out.
	i := int(uint64(uint32(a)*0x9e3779b9) * uint64(len(s.slots)) >> 32)
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
