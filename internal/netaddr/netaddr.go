// Package netaddr provides compact IPv4 address value types used throughout
// the service-discovery library: single addresses, CIDR prefixes, half-open
// address ranges, and mutable address sets.
//
// The simulator and the discovery engines index inventories by address, so
// these types favor O(1) arithmetic over the generality of net/netip: a V4
// is a uint32 under the hood and may be used directly as a map key, compared
// with <, or iterated with ++-style arithmetic.
package netaddr

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// V4 is an IPv4 address stored in host byte order (a.b.c.d ==
// a<<24 | b<<16 | c<<8 | d). The zero value is 0.0.0.0.
type V4 uint32

// MustParseV4 parses a dotted-quad address and panics on error.
// It is intended for constants in tests and configuration literals.
func MustParseV4(s string) V4 {
	a, err := ParseV4(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseV4 parses a dotted-quad IPv4 address such as "128.125.7.9".
func ParseV4(s string) (V4, error) {
	var parts [4]uint32
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netaddr: invalid IPv4 %q: missing octet %d", s, i+1)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		n, err := strconv.ParseUint(tok, 10, 16)
		if err != nil || n > 255 {
			return 0, fmt.Errorf("netaddr: invalid IPv4 %q: bad octet %q", s, tok)
		}
		parts[i] = uint32(n)
	}
	return V4(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// FromBytes assembles an address from its four network-order bytes.
func FromBytes(a, b, c, d byte) V4 {
	return V4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// FromSlice decodes a 4-byte network-order slice. It reports ok=false if the
// slice is not exactly four bytes long.
func FromSlice(b []byte) (V4, bool) {
	if len(b) != 4 {
		return 0, false
	}
	return FromBytes(b[0], b[1], b[2], b[3]), true
}

// Bytes returns the address in network byte order.
func (a V4) Bytes() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// AppendTo appends the four network-order bytes to dst.
func (a V4) AppendTo(dst []byte) []byte {
	return append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Ord is the address as an integer, ordered as addresses are.
func (a V4) Ord() uint64 { return uint64(a) }

// String renders the dotted-quad form.
func (a V4) String() string {
	b := a.Bytes()
	buf := make([]byte, 0, 15)
	for i, o := range b {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendUint(buf, uint64(o), 10)
	}
	return string(buf)
}

// MarshalText renders the dotted-quad form, making V4 serialize as a
// string (not a raw uint32) in JSON objects and as a map key — the form
// the federation wire codec ships across sites.
func (a V4) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses the dotted-quad form written by MarshalText.
func (a *V4) UnmarshalText(text []byte) error {
	v, err := ParseV4(string(text))
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// Prefix is a CIDR block: the masked base address plus prefix length.
type Prefix struct {
	base V4
	bits uint8
}

// ErrBadPrefix reports an invalid CIDR string or prefix length.
var ErrBadPrefix = errors.New("netaddr: invalid prefix")

// NewPrefix masks addr down to length ln and returns the resulting block.
func NewPrefix(addr V4, ln int) (Prefix, error) {
	if ln < 0 || ln > 32 {
		return Prefix{}, fmt.Errorf("%w: length %d", ErrBadPrefix, ln)
	}
	return Prefix{base: addr & V4(maskFor(ln)), bits: uint8(ln)}, nil
}

// MustParsePrefix parses CIDR notation and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation such as "128.125.0.0/16".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q missing '/'", ErrBadPrefix, s)
	}
	addr, err := ParseV4(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	ln, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q bad length", ErrBadPrefix, s)
	}
	return NewPrefix(addr, ln)
}

func maskFor(ln int) uint32 {
	if ln == 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(ln))
}

// Base returns the (masked) network address of the block.
func (p Prefix) Base() V4 { return p.base }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Size returns the number of addresses covered by the block.
func (p Prefix) Size() int {
	return 1 << (32 - uint(p.bits))
}

// Last returns the final (broadcast) address in the block.
func (p Prefix) Last() V4 {
	return p.base | V4(^maskFor(int(p.bits)))
}

// Contains reports whether a falls inside the block.
func (p Prefix) Contains(a V4) bool {
	return a&V4(maskFor(int(p.bits))) == p.base
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.base.String() + "/" + strconv.Itoa(int(p.bits))
}

// Addrs returns every address in the block, in order. Intended for the
// modest block sizes used by the simulator (≤ /16).
func (p Prefix) Addrs() []V4 {
	out := make([]V4, 0, p.Size())
	for a := p.base; ; a++ {
		out = append(out, a)
		if a == p.Last() {
			break
		}
	}
	return out
}

// Range is a half-open address interval [Lo, Hi). Unlike Prefix it can
// represent arbitrary spans (e.g. a PPP pool of 300 addresses).
// A Range with Hi == Lo is empty. Hi == 0 with Lo != 0 means the range runs
// to the top of the address space (wraps the uint32 end sentinel).
type Range struct {
	Lo, Hi V4
}

// Size returns the number of addresses in the range.
func (r Range) Size() int {
	if r.Hi == 0 && r.Lo != 0 {
		return int(uint64(1<<32) - uint64(r.Lo))
	}
	return int(r.Hi - r.Lo)
}

// Contains reports whether a falls inside [Lo, Hi).
func (r Range) Contains(a V4) bool {
	if r.Hi == 0 && r.Lo != 0 {
		return a >= r.Lo
	}
	return a >= r.Lo && a < r.Hi
}

// At returns the i-th address of the range. It panics when i is out of
// bounds, mirroring slice indexing.
func (r Range) At(i int) V4 {
	if i < 0 || i >= r.Size() {
		panic(fmt.Sprintf("netaddr: index %d out of range %s (size %d)", i, r, r.Size()))
	}
	return r.Lo + V4(i)
}

// String renders "lo-hi" (inclusive upper bound for readability).
func (r Range) String() string {
	if r.Size() == 0 {
		return r.Lo.String() + "-empty"
	}
	return r.Lo.String() + "-" + (r.Hi - 1).String()
}

// Set is a mutable collection of IPv4 addresses with set algebra. The zero
// value is an empty, ready-to-use set.
type Set struct {
	m map[V4]struct{}
	// shared marks storage aliased by a CloneShared twin: the next
	// mutation copies the map first (copy-on-write), so the twin never
	// observes it.
	shared bool
}

// NewSet returns a set seeded with the given addresses.
func NewSet(addrs ...V4) *Set {
	s := &Set{}
	for _, a := range addrs {
		s.Add(a)
	}
	return s
}

// own makes the storage exclusively s's again, copying it if a CloneShared
// twin aliases it.
func (s *Set) own() {
	if !s.shared {
		return
	}
	m := make(map[V4]struct{}, len(s.m))
	for a := range s.m {
		m[a] = struct{}{}
	}
	s.m, s.shared = m, false
}

// Add inserts a. Duplicate inserts are no-ops.
func (s *Set) Add(a V4) {
	s.own()
	if s.m == nil {
		s.m = make(map[V4]struct{})
	}
	s.m[a] = struct{}{}
}

// Contains reports membership.
func (s *Set) Contains(a V4) bool {
	_, ok := s.m[a]
	return ok
}

// Len returns the number of addresses in the set.
func (s *Set) Len() int { return len(s.m) }

// CloneShared returns a copy that shares s's storage copy-on-write: the
// O(1) clone for snapshot views. Either side's next mutation copies the
// storage first, so the twins can never observe each other, while reads
// stay free and an all-read lifetime never pays for a copy at all. Not
// safe for concurrent use with mutations of s, matching Set's general
// contract.
func (s *Set) CloneShared() *Set {
	if len(s.m) == 0 {
		return &Set{}
	}
	// Skip the re-mark on an already-shared set so CloneShared stays a
	// pure read there: concurrent readers may clone the same frozen set.
	if !s.shared {
		s.shared = true
	}
	return &Set{m: s.m, shared: true}
}

// Union returns a new set with every address in s or t.
func (s *Set) Union(t *Set) *Set {
	out := NewSet()
	for a := range s.m {
		out.Add(a)
	}
	if t != nil {
		for a := range t.m {
			out.Add(a)
		}
	}
	return out
}

// Intersect returns a new set with addresses present in both s and t.
func (s *Set) Intersect(t *Set) *Set {
	out := NewSet()
	if t == nil {
		return out
	}
	small, large := s, t
	if large.Len() < small.Len() {
		small, large = large, small
	}
	for a := range small.m {
		if large.Contains(a) {
			out.Add(a)
		}
	}
	return out
}

// Diff returns a new set with addresses in s but not in t.
func (s *Set) Diff(t *Set) *Set {
	out := NewSet()
	for a := range s.m {
		if t == nil || !t.Contains(a) {
			out.Add(a)
		}
	}
	return out
}

// Sorted returns the addresses in ascending order.
func (s *Set) Sorted() []V4 {
	out := make([]V4, 0, len(s.m))
	for a := range s.m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
