// Package packet implements the wire-format packet model used by the
// capture, trace, and probing subsystems: Ethernet II, IPv4, TCP, UDP and
// ICMPv4 encode/decode with real RFC header layouts and checksums.
//
// The API follows the layered-decoding idioms popularized by gopacket
// (LayerType, Endpoint), scaled down to the protocols this
// system needs and implemented on the standard library alone. Decoding is
// allocation-conscious: a Packet decodes all layers into pre-declared
// structs in one pass, and DecodeLayers-style partial decoding is available
// through the individual layers' DecodeFrom methods.
package packet

import (
	"errors"
	"fmt"
	"time"

	"servdisc/internal/netaddr"
)

// LayerType identifies a protocol layer within a packet.
type LayerType uint8

// Known layer types.
const (
	LayerTypeNone LayerType = iota
	LayerTypeEthernet
	LayerTypeIPv4
	LayerTypeTCP
	LayerTypeUDP
	LayerTypeICMPv4
	LayerTypePayload
)

// String names the layer type.
func (lt LayerType) String() string {
	switch lt {
	case LayerTypeNone:
		return "None"
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeICMPv4:
		return "ICMPv4"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(lt))
	}
}

// Decode errors.
var (
	ErrTruncated  = errors.New("packet: truncated")
	ErrBadVersion = errors.New("packet: not IPv4")
	ErrBadHeader  = errors.New("packet: malformed header")
)

// Packet is a fully decoded packet plus capture metadata. The layer fields
// are valid according to which LayerTypes appear in Layers.
type Packet struct {
	// Timestamp is when the packet was captured or synthesized.
	Timestamp time.Time
	// Ethernet is present when decoding started at the link layer.
	Ethernet Ethernet
	// IPv4 is present for all packets this system generates.
	IPv4 IPv4
	// Exactly one of TCP, UDP, ICMPv4 is present for transport.
	TCP    TCP
	UDP    UDP
	ICMPv4 ICMPv4
	// Payload is the undedecoded application bytes, if any.
	Payload []byte
	// Layers lists the decoded layer types in order.
	Layers []LayerType
}

// Has reports whether the packet contains the given layer.
func (p *Packet) Has(lt LayerType) bool {
	for _, l := range p.Layers {
		if l == lt {
			return true
		}
	}
	return false
}

// Decode parses a full frame starting at the Ethernet layer.
func Decode(data []byte, ts time.Time) (*Packet, error) {
	p := &Packet{Timestamp: ts}
	rest, err := p.Ethernet.DecodeFrom(data)
	if err != nil {
		return nil, err
	}
	p.Layers = append(p.Layers, LayerTypeEthernet)
	if p.Ethernet.EtherType != EtherTypeIPv4 {
		p.Payload = rest
		if len(rest) > 0 {
			p.Layers = append(p.Layers, LayerTypePayload)
		}
		return p, nil
	}
	return p, p.decodeIP(rest)
}

// DecodeIP parses a frame that starts directly at the IPv4 header (the
// simulator's native form; link headers carry no information there).
func DecodeIP(data []byte, ts time.Time) (*Packet, error) {
	p := &Packet{Timestamp: ts}
	return p, p.decodeIP(data)
}

func (p *Packet) decodeIP(data []byte) error {
	rest, err := p.IPv4.DecodeFrom(data)
	if err != nil {
		return err
	}
	p.Layers = append(p.Layers, LayerTypeIPv4)
	switch p.IPv4.Protocol {
	case ProtoTCP:
		rest, err = p.TCP.DecodeFrom(rest)
		if err != nil {
			return err
		}
		p.Layers = append(p.Layers, LayerTypeTCP)
	case ProtoUDP:
		rest, err = p.UDP.DecodeFrom(rest)
		if err != nil {
			return err
		}
		p.Layers = append(p.Layers, LayerTypeUDP)
	case ProtoICMP:
		rest, err = p.ICMPv4.DecodeFrom(rest)
		if err != nil {
			return err
		}
		p.Layers = append(p.Layers, LayerTypeICMPv4)
	}
	p.Payload = rest
	if len(rest) > 0 {
		p.Layers = append(p.Layers, LayerTypePayload)
	}
	return nil
}

// Marshal serializes the packet's present layers into one buffer of
// exactly the wire size. Length and checksum fields are recomputed so
// callers may mutate headers freely between decode and re-encode.
func (p *Packet) Marshal() []byte {
	// Checksums first: the IP total length counts the transport header.
	body := len(p.Payload)
	switch {
	case p.Has(LayerTypeTCP):
		body += tcpHeaderLen
		p.TCP.setChecksum(&p.IPv4, p.Payload)
	case p.Has(LayerTypeUDP):
		body += udpHeaderLen
		p.UDP.Length = uint16(body)
		p.UDP.setChecksum(&p.IPv4, p.Payload)
	case p.Has(LayerTypeICMPv4):
		body += icmpHeaderLen
		p.ICMPv4.setChecksum(p.Payload)
	}
	size := body
	if p.Has(LayerTypeIPv4) {
		size += ipv4HeaderLen
		p.IPv4.TotalLength = uint16(size)
		p.IPv4.setChecksum()
	}
	if p.Has(LayerTypeEthernet) {
		size += ethHeaderLen
	}

	out := make([]byte, 0, size)
	if p.Has(LayerTypeEthernet) {
		out = p.Ethernet.AppendTo(out)
	}
	if p.Has(LayerTypeIPv4) {
		out = p.IPv4.AppendTo(out)
	}
	switch {
	case p.Has(LayerTypeTCP):
		out = p.TCP.AppendTo(out)
	case p.Has(LayerTypeUDP):
		out = p.UDP.AppendTo(out)
	case p.Has(LayerTypeICMPv4):
		out = p.ICMPv4.AppendTo(out)
	}
	return append(out, p.Payload...)
}

// Endpoint is one side of a transport conversation.
type Endpoint struct {
	Addr netaddr.V4
	Port uint16
}

// String renders "addr:port".
func (e Endpoint) String() string {
	return fmt.Sprintf("%s:%d", e.Addr, e.Port)
}
