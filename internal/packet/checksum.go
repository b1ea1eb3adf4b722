package packet

import "servdisc/internal/netaddr"

// onesSum accumulates the 16-bit one's-complement sum over data into acc.
// A trailing odd byte is padded with zero per RFC 1071.
func onesSum(acc uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		acc += uint32(data[n-1]) << 8
	}
	return acc
}

// fold collapses the 32-bit accumulator to the final 16-bit checksum.
func fold(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xFFFF) + (acc >> 16)
	}
	return ^uint16(acc)
}

// Checksum computes the RFC 1071 Internet checksum of data.
func Checksum(data []byte) uint16 {
	return fold(onesSum(0, data))
}

// pseudoHeaderSum computes the partial sum of the IPv4 pseudo-header used
// by the TCP and UDP checksums (RFC 793 §3.1, RFC 768).
func pseudoHeaderSum(src, dst netaddr.V4, proto IPProtocol, length int) uint32 {
	return words32(uint32(src)) + words32(uint32(dst)) + uint32(proto) + uint32(length)
}

// words32 is the one's-complement sum of v's two big-endian 16-bit words.
func words32(v uint32) uint32 { return v>>16 + v&0xFFFF }
