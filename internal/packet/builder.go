package packet

import (
	"time"

	"servdisc/internal/netaddr"
)

// Builder synthesizes the handful of packet shapes the simulator and the
// probe engine emit. It assigns monotonically increasing IP IDs so traces
// look plausible to external tooling.
type Builder struct {
	ttl    uint8
	nextID uint16
}

// NewBuilder returns a builder emitting packets with the given TTL
// (64 if ttl is 0).
func NewBuilder(ttl uint8) *Builder {
	if ttl == 0 {
		ttl = 64
	}
	return &Builder{ttl: ttl}
}

func (b *Builder) ip(src, dst netaddr.V4, proto IPProtocol) IPv4 {
	b.nextID++
	return IPv4{
		ID:       b.nextID,
		Flags:    IPv4DontFragment,
		TTL:      b.ttl,
		Protocol: proto,
		Src:      src,
		Dst:      dst,
	}
}

// TCPPacket builds a TCP segment with the given flags and payload.
func (b *Builder) TCPPacket(ts time.Time, src, dst Endpoint, flags TCPFlags, seq, ack uint32, payload []byte) *Packet {
	p := &Packet{
		Timestamp: ts,
		IPv4:      b.ip(src.Addr, dst.Addr, ProtoTCP),
		TCP: TCP{
			SrcPort: src.Port,
			DstPort: dst.Port,
			Seq:     seq,
			Ack:     ack,
			Flags:   flags,
			Window:  65535,
		},
		Payload: payload,
		Layers:  []LayerType{LayerTypeIPv4, LayerTypeTCP},
	}
	if len(payload) > 0 {
		p.Layers = append(p.Layers, LayerTypePayload)
	}
	return p
}

// Syn builds the connection-opening segment of a half-open probe or a
// client connection attempt.
func (b *Builder) Syn(ts time.Time, src, dst Endpoint, seq uint32) *Packet {
	return b.TCPPacket(ts, src, dst, FlagSYN, seq, 0, nil)
}

// SynAck builds a server's accept response — the passive monitor's positive
// evidence of a TCP service (paper Section 3.2).
func (b *Builder) SynAck(ts time.Time, src, dst Endpoint, seq, ack uint32) *Packet {
	return b.TCPPacket(ts, src, dst, FlagSYN|FlagACK, seq, ack, nil)
}

// Rst builds a reset — the "connection refused" signal that confirms a live
// host with no service on the probed port.
func (b *Builder) Rst(ts time.Time, src, dst Endpoint, seq uint32) *Packet {
	return b.TCPPacket(ts, src, dst, FlagRST|FlagACK, seq, 0, nil)
}

// UDPPacket builds a UDP datagram.
func (b *Builder) UDPPacket(ts time.Time, src, dst Endpoint, payload []byte) *Packet {
	p := &Packet{
		Timestamp: ts,
		IPv4:      b.ip(src.Addr, dst.Addr, ProtoUDP),
		UDP: UDP{
			SrcPort: src.Port,
			DstPort: dst.Port,
			Length:  uint16(udpHeaderLen + len(payload)),
		},
		Payload: payload,
		Layers:  []LayerType{LayerTypeIPv4, LayerTypeUDP},
	}
	if len(payload) > 0 {
		p.Layers = append(p.Layers, LayerTypePayload)
	}
	return p
}

// PortUnreachable builds the ICMP response a kernel sends when a UDP probe
// hits a closed port. The payload embeds the offending datagram's IP header
// and first 8 bytes, per RFC 792.
func (b *Builder) PortUnreachable(ts time.Time, src netaddr.V4, offending *Packet) *Packet {
	quoted := offending.IPv4
	quoted.TotalLength = uint16(ipv4HeaderLen + udpHeaderLen)
	quoted.setChecksum()
	payload := quoted.AppendTo(nil)
	payload = offending.UDP.AppendTo(payload)
	p := &Packet{
		Timestamp: ts,
		IPv4:      b.ip(src, offending.IPv4.Src, ProtoICMP),
		ICMPv4: ICMPv4{
			Type: ICMPDestUnreachable,
			Code: ICMPCodePortUnreach,
		},
		Payload: payload,
		Layers:  []LayerType{LayerTypeIPv4, LayerTypeICMPv4, LayerTypePayload},
	}
	return p
}
