package packet

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"servdisc/internal/netaddr"
)

// be is the network byte order used by every header field.
var be = binary.BigEndian

// EtherType values this system understands.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

const ethHeaderLen = 14

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst, Src  [6]byte
	EtherType uint16
}

// AppendTo serializes the header onto dst and returns the extended slice.
func (e *Ethernet) AppendTo(dst []byte) []byte {
	dst = append(dst, e.Dst[:]...)
	dst = append(dst, e.Src[:]...)
	return be.AppendUint16(dst, e.EtherType)
}

// DecodeFrom parses the header and returns the remaining bytes.
func (e *Ethernet) DecodeFrom(data []byte) ([]byte, error) {
	if len(data) < ethHeaderLen {
		return nil, fmt.Errorf("%w: ethernet header (%d bytes)", ErrTruncated, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = be.Uint16(data[12:14])
	return data[ethHeaderLen:], nil
}

// IPProtocol is the IPv4 protocol number.
type IPProtocol uint8

// Protocol numbers used by the system.
const (
	ProtoICMP IPProtocol = 1
	ProtoTCP  IPProtocol = 6
	ProtoUDP  IPProtocol = 17
)

// String names the protocol.
func (p IPProtocol) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// MarshalText renders the protocol as its String form ("tcp", "udp",
// "icmp", or "proto(N)" for anything else), so protocol numbers serialize
// as stable names on the federation wire rather than raw bytes.
func (p IPProtocol) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses any form MarshalText produces.
func (p *IPProtocol) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "icmp":
		*p = ProtoICMP
	case "tcp":
		*p = ProtoTCP
	case "udp":
		*p = ProtoUDP
	default:
		// Strictly "proto(N)": no trailing bytes, N a decimal uint8.
		inner, ok := strings.CutPrefix(s, "proto(")
		if ok {
			inner, ok = strings.CutSuffix(inner, ")")
		}
		if !ok {
			return fmt.Errorf("packet: unknown protocol %q", s)
		}
		n, err := strconv.ParseUint(inner, 10, 8)
		if err != nil {
			return fmt.Errorf("packet: unknown protocol %q", s)
		}
		*p = IPProtocol(n)
	}
	return nil
}

const ipv4HeaderLen = 20

// IPv4 is an IPv4 header without options (IHL=5), which is all this system
// generates; decoding skips any options present in foreign traces.
type IPv4 struct {
	TOS         uint8
	TotalLength uint16
	ID          uint16
	Flags       uint8 // 3 bits: reserved, DF, MF
	FragOffset  uint16
	TTL         uint8
	Protocol    IPProtocol
	Checksum    uint16
	Src, Dst    netaddr.V4
}

// IPv4 flag bits.
const (
	IPv4DontFragment  = 0x2
	IPv4MoreFragments = 0x1
)

// AppendTo serializes the header onto dst and returns the extended slice.
func (ip *IPv4) AppendTo(dst []byte) []byte {
	dst = append(dst, 0x45, ip.TOS) // version 4, IHL 5
	dst = be.AppendUint16(dst, ip.TotalLength)
	dst = be.AppendUint16(dst, ip.ID)
	dst = be.AppendUint16(dst, uint16(ip.Flags)<<13|ip.FragOffset&0x1FFF)
	dst = append(dst, ip.TTL, uint8(ip.Protocol))
	dst = be.AppendUint16(dst, ip.Checksum)
	dst = ip.Src.AppendTo(dst)
	dst = ip.Dst.AppendTo(dst)
	return dst
}

// setChecksum recomputes the header checksum in place: the sum of the
// header's 16-bit words as AppendTo lays them out, checksum field zero.
func (ip *IPv4) setChecksum() {
	ip.Checksum = fold((0x4500 | uint32(ip.TOS)) + uint32(ip.TotalLength) + uint32(ip.ID) +
		uint32(uint16(ip.Flags)<<13|ip.FragOffset&0x1FFF) + (uint32(ip.TTL)<<8 | uint32(ip.Protocol)) +
		words32(uint32(ip.Src)) + words32(uint32(ip.Dst)))
}

// DecodeFrom parses the header and returns the payload bytes (bounded by
// TotalLength when the buffer carries trailing padding).
func (ip *IPv4) DecodeFrom(data []byte) ([]byte, error) {
	if len(data) < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: IPv4 header (%d bytes)", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: IHL %d", ErrBadHeader, ihl)
	}
	if len(data) < ihl {
		return nil, fmt.Errorf("%w: IPv4 options", ErrTruncated)
	}
	ip.TOS = data[1]
	ip.TotalLength = be.Uint16(data[2:4])
	ip.ID = be.Uint16(data[4:6])
	ff := be.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1FFF
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = be.Uint16(data[10:12])
	ip.Src, _ = netaddr.FromSlice(data[12:16])
	ip.Dst, _ = netaddr.FromSlice(data[16:20])

	end := int(ip.TotalLength)
	if end == 0 || end > len(data) { // tolerate TSO-style zero or short capture
		end = len(data)
	}
	if end < ihl {
		return nil, fmt.Errorf("%w: total length %d < IHL", ErrBadHeader, ip.TotalLength)
	}
	return data[ihl:end], nil
}

// Verify reports whether the stored header checksum is consistent.
func (ip *IPv4) Verify() bool {
	want := ip.Checksum
	ip.setChecksum()
	got := ip.Checksum
	ip.Checksum = want
	return got == want
}

// TCPFlags is the TCP flag byte (we only model the low 8 bits; ECN bits in
// the data-offset byte are not used by the discovery logic).
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all bits in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders set flags in nmap-style order ("SYN|ACK").
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagRST, "RST"},
		{FlagFIN, "FIN"}, {FlagPSH, "PSH"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

const tcpHeaderLen = 20

// TCP is a TCP header without options (data offset 5). The discovery system
// never needs options; decoding skips them in foreign traces.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// AppendTo serializes the header onto dst and returns the extended slice.
func (t *TCP) AppendTo(dst []byte) []byte {
	dst = be.AppendUint16(dst, t.SrcPort)
	dst = be.AppendUint16(dst, t.DstPort)
	dst = be.AppendUint32(dst, t.Seq)
	dst = be.AppendUint32(dst, t.Ack)
	dst = append(dst, 5<<4, uint8(t.Flags)) // data offset 5, no reserved bits
	dst = be.AppendUint16(dst, t.Window)
	dst = be.AppendUint16(dst, t.Checksum)
	dst = be.AppendUint16(dst, t.Urgent)
	return dst
}

// setChecksum sums the header's words as AppendTo lays them out, checksum
// field zero, with the pseudo-header and the payload.
func (t *TCP) setChecksum(ip *IPv4, payload []byte) {
	acc := pseudoHeaderSum(ip.Src, ip.Dst, ProtoTCP, tcpHeaderLen+len(payload)) +
		uint32(t.SrcPort) + uint32(t.DstPort) + words32(t.Seq) + words32(t.Ack) +
		(5<<12 | uint32(t.Flags)) + uint32(t.Window) + uint32(t.Urgent)
	t.Checksum = fold(onesSum(acc, payload))
}

// DecodeFrom parses the header and returns the payload.
func (t *TCP) DecodeFrom(data []byte) ([]byte, error) {
	if len(data) < tcpHeaderLen {
		return nil, fmt.Errorf("%w: TCP header (%d bytes)", ErrTruncated, len(data))
	}
	t.SrcPort = be.Uint16(data[0:2])
	t.DstPort = be.Uint16(data[2:4])
	t.Seq = be.Uint32(data[4:8])
	t.Ack = be.Uint32(data[8:12])
	off := int(data[12]>>4) * 4
	if off < tcpHeaderLen {
		return nil, fmt.Errorf("%w: TCP data offset %d", ErrBadHeader, off)
	}
	if len(data) < off {
		return nil, fmt.Errorf("%w: TCP options", ErrTruncated)
	}
	t.Flags = TCPFlags(data[13])
	t.Window = be.Uint16(data[14:16])
	t.Checksum = be.Uint16(data[16:18])
	t.Urgent = be.Uint16(data[18:20])
	return data[off:], nil
}

// Verify checks the transport checksum against the pseudo-header.
func (t *TCP) Verify(ip *IPv4, payload []byte) bool {
	want := t.Checksum
	t.setChecksum(ip, payload)
	got := t.Checksum
	t.Checksum = want
	return got == want
}

const udpHeaderLen = 8

// UDP is a UDP header (RFC 768).
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// AppendTo serializes the header onto dst and returns the extended slice.
func (u *UDP) AppendTo(dst []byte) []byte {
	dst = be.AppendUint16(dst, u.SrcPort)
	dst = be.AppendUint16(dst, u.DstPort)
	dst = be.AppendUint16(dst, u.Length)
	dst = be.AppendUint16(dst, u.Checksum)
	return dst
}

func (u *UDP) setChecksum(ip *IPv4, payload []byte) {
	acc := pseudoHeaderSum(ip.Src, ip.Dst, ProtoUDP, udpHeaderLen+len(payload)) +
		uint32(u.SrcPort) + uint32(u.DstPort) + uint32(u.Length)
	c := fold(onesSum(acc, payload))
	if c == 0 {
		c = 0xFFFF // RFC 768: transmitted all-ones when computed zero
	}
	u.Checksum = c
}

// DecodeFrom parses the header and returns the payload bounded by Length.
func (u *UDP) DecodeFrom(data []byte) ([]byte, error) {
	if len(data) < udpHeaderLen {
		return nil, fmt.Errorf("%w: UDP header (%d bytes)", ErrTruncated, len(data))
	}
	u.SrcPort = be.Uint16(data[0:2])
	u.DstPort = be.Uint16(data[2:4])
	u.Length = be.Uint16(data[4:6])
	u.Checksum = be.Uint16(data[6:8])
	end := int(u.Length)
	if end < udpHeaderLen || end > len(data) {
		end = len(data)
	}
	return data[udpHeaderLen:end], nil
}

// ICMPv4 types and codes used by the system.
const (
	ICMPEchoReply          uint8 = 0
	ICMPDestUnreachable    uint8 = 3
	ICMPEchoRequest        uint8 = 8
	ICMPCodePortUnreach    uint8 = 3
	ICMPCodeHostUnreach    uint8 = 1
	ICMPCodeAdminProhibite uint8 = 13
)

const icmpHeaderLen = 8

// ICMPv4 is an ICMP header; for destination-unreachable messages the
// payload carries the original IP header + 8 bytes, which Decode leaves in
// Packet.Payload.
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	// Rest holds the type-specific 4 bytes (identifier/sequence for echo,
	// unused/MTU for unreachable).
	Rest [4]byte
}

// AppendTo serializes the header onto dst and returns the extended slice.
func (ic *ICMPv4) AppendTo(dst []byte) []byte {
	dst = append(dst, ic.Type, ic.Code)
	dst = be.AppendUint16(dst, ic.Checksum)
	return append(dst, ic.Rest[:]...)
}

func (ic *ICMPv4) setChecksum(payload []byte) {
	acc := (uint32(ic.Type)<<8 | uint32(ic.Code)) + onesSum(0, ic.Rest[:])
	ic.Checksum = fold(onesSum(acc, payload))
}

// DecodeFrom parses the header and returns the remaining bytes.
func (ic *ICMPv4) DecodeFrom(data []byte) ([]byte, error) {
	if len(data) < icmpHeaderLen {
		return nil, fmt.Errorf("%w: ICMP header (%d bytes)", ErrTruncated, len(data))
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = be.Uint16(data[2:4])
	copy(ic.Rest[:], data[4:8])
	return data[icmpHeaderLen:], nil
}
