package packet

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"servdisc/internal/netaddr"
)

var (
	srcA = netaddr.MustParseV4("128.125.1.10")
	dstA = netaddr.MustParseV4("66.35.250.150")
	tRef = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
)

func TestTCPRoundTrip(t *testing.T) {
	b := NewBuilder(0)
	syn := b.Syn(tRef, Endpoint{srcA, 40001}, Endpoint{dstA, 80}, 12345)
	wire := syn.Marshal()

	got, err := DecodeIP(wire, tRef)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has(LayerTypeIPv4) || !got.Has(LayerTypeTCP) {
		t.Fatalf("layers = %v", got.Layers)
	}
	if got.IPv4.Src != srcA || got.IPv4.Dst != dstA {
		t.Errorf("addresses: %v -> %v", got.IPv4.Src, got.IPv4.Dst)
	}
	if got.TCP.SrcPort != 40001 || got.TCP.DstPort != 80 {
		t.Errorf("ports: %d -> %d", got.TCP.SrcPort, got.TCP.DstPort)
	}
	if !got.TCP.Flags.Has(FlagSYN) || got.TCP.Flags.Has(FlagACK) {
		t.Errorf("flags = %v", got.TCP.Flags)
	}
	if got.TCP.Seq != 12345 {
		t.Errorf("seq = %d", got.TCP.Seq)
	}
	if !got.IPv4.Verify() {
		t.Error("IP checksum invalid")
	}
	if !got.TCP.Verify(&got.IPv4, got.Payload) {
		t.Error("TCP checksum invalid")
	}
}

func TestSynAckAndRstFlags(t *testing.T) {
	b := NewBuilder(0)
	sa := b.SynAck(tRef, Endpoint{dstA, 80}, Endpoint{srcA, 40001}, 777, 12346)
	if !sa.TCP.Flags.Has(FlagSYN | FlagACK) {
		t.Errorf("SynAck flags = %v", sa.TCP.Flags)
	}
	rst := b.Rst(tRef, Endpoint{dstA, 81}, Endpoint{srcA, 40001}, 0)
	if !rst.TCP.Flags.Has(FlagRST) {
		t.Errorf("Rst flags = %v", rst.TCP.Flags)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	b := NewBuilder(0)
	payload := []byte("dns-query")
	dg := b.UDPPacket(tRef, Endpoint{srcA, 5353}, Endpoint{dstA, 53}, payload)
	wire := dg.Marshal()

	got, err := DecodeIP(wire, tRef)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has(LayerTypeUDP) {
		t.Fatalf("layers = %v", got.Layers)
	}
	if got.UDP.SrcPort != 5353 || got.UDP.DstPort != 53 {
		t.Errorf("ports: %d -> %d", got.UDP.SrcPort, got.UDP.DstPort)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.UDP.Length != uint16(8+len(payload)) {
		t.Errorf("length = %d", got.UDP.Length)
	}
}

func TestICMPPortUnreachable(t *testing.T) {
	b := NewBuilder(0)
	probe := b.UDPPacket(tRef, Endpoint{srcA, 40000}, Endpoint{dstA, 137}, []byte{0})
	icmp := b.PortUnreachable(tRef.Add(time.Millisecond), dstA, probe)
	wire := icmp.Marshal()

	got, err := DecodeIP(wire, tRef)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has(LayerTypeICMPv4) {
		t.Fatalf("layers = %v", got.Layers)
	}
	if got.ICMPv4.Type != ICMPDestUnreachable || got.ICMPv4.Code != ICMPCodePortUnreach {
		t.Errorf("type/code = %d/%d", got.ICMPv4.Type, got.ICMPv4.Code)
	}
	// The payload quotes the probe's IP header and first 8 bytes.
	var quoted IPv4
	rest, err := quoted.DecodeFrom(got.Payload)
	if err != nil || len(rest) < 4 {
		t.Fatalf("quoted header: %v (%d bytes after it)", err, len(rest))
	}
	if quoted.Src != srcA || be.Uint16(rest[2:4]) != 137 {
		t.Errorf("quoted %v -> port %d", quoted.Src, be.Uint16(rest[2:4]))
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	b := NewBuilder(0)
	p := b.Syn(tRef, Endpoint{srcA, 1}, Endpoint{dstA, 22}, 1)
	p.Ethernet = Ethernet{
		Dst:       [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		Src:       [6]byte{0, 1, 2, 3, 4, 5},
		EtherType: EtherTypeIPv4,
	}
	p.Layers = append([]LayerType{LayerTypeEthernet}, p.Layers...)
	wire := p.Marshal()

	got, err := Decode(wire, tRef)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has(LayerTypeEthernet) || !got.Has(LayerTypeTCP) {
		t.Fatalf("layers = %v", got.Layers)
	}
	if got.Ethernet.Src != p.Ethernet.Src {
		t.Error("ethernet src mismatch")
	}
}

func TestDecodeTruncated(t *testing.T) {
	b := NewBuilder(0)
	wire := b.Syn(tRef, Endpoint{srcA, 1}, Endpoint{dstA, 22}, 1).Marshal()
	for _, n := range []int{0, 10, 19, 21, 39} {
		if n >= len(wire) {
			continue
		}
		if _, err := DecodeIP(wire[:n], tRef); err == nil {
			t.Errorf("DecodeIP of %d bytes succeeded", n)
		}
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b := NewBuilder(0)
	wire := b.Syn(tRef, Endpoint{srcA, 1}, Endpoint{dstA, 22}, 1).Marshal()
	wire[0] = 0x65 // version 6
	if _, err := DecodeIP(wire, tRef); err == nil {
		t.Error("bad version accepted")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 is 0x220d
	// (one's complement of 0xddf2).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd-length handling.
	if got := Checksum([]byte{0xab}); got != ^uint16(0xab00) {
		t.Errorf("odd-length checksum = %#04x", got)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	b := NewBuilder(0)
	wire := b.Syn(tRef, Endpoint{srcA, 1}, Endpoint{dstA, 80}, 9).Marshal()
	p, err := DecodeIP(wire, tRef)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IPv4.Verify() {
		t.Fatal("fresh packet fails verify")
	}
	p.IPv4.TTL ^= 0xFF
	if p.IPv4.Verify() {
		t.Error("corrupted header passed verify")
	}
}

func TestMarshalDecodeProperty(t *testing.T) {
	// Property: any TCP packet built from random fields round-trips.
	b := NewBuilder(0)
	f := func(srcIP, dstIP uint32, sp, dp uint16, seq, ack uint32, flags uint8, npayload uint8) bool {
		payload := bytes.Repeat([]byte{0xA5}, int(npayload))
		p := b.TCPPacket(tRef, Endpoint{netaddr.V4(srcIP), sp}, Endpoint{netaddr.V4(dstIP), dp},
			TCPFlags(flags), seq, ack, payload)
		wire := p.Marshal()
		got, err := DecodeIP(wire, tRef)
		if err != nil {
			return false
		}
		return got.IPv4.Src == netaddr.V4(srcIP) &&
			got.IPv4.Dst == netaddr.V4(dstIP) &&
			got.TCP.SrcPort == sp && got.TCP.DstPort == dp &&
			got.TCP.Seq == seq && got.TCP.Ack == ack &&
			got.TCP.Flags == TCPFlags(flags) &&
			bytes.Equal(got.Payload, payload) &&
			got.IPv4.Verify() &&
			got.TCP.Verify(&got.IPv4, got.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPMarshalDecodeProperty(t *testing.T) {
	b := NewBuilder(0)
	f := func(srcIP, dstIP uint32, sp, dp uint16, npayload uint8) bool {
		payload := bytes.Repeat([]byte{0x5A}, int(npayload))
		p := b.UDPPacket(tRef, Endpoint{netaddr.V4(srcIP), sp}, Endpoint{netaddr.V4(dstIP), dp}, payload)
		got, err := DecodeIP(p.Marshal(), tRef)
		if err != nil {
			return false
		}
		return got.UDP.SrcPort == sp && got.UDP.DstPort == dp && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Errorf("String = %q", s)
	}
	if s := TCPFlags(0).String(); s != "none" {
		t.Errorf("String = %q", s)
	}
}

func TestLayerTypeString(t *testing.T) {
	for lt, want := range map[LayerType]string{
		LayerTypeEthernet: "Ethernet",
		LayerTypeIPv4:     "IPv4",
		LayerTypeTCP:      "TCP",
		LayerTypeUDP:      "UDP",
		LayerTypeICMPv4:   "ICMPv4",
		LayerType(99):     "LayerType(99)",
	} {
		if got := lt.String(); got != want {
			t.Errorf("String(%d) = %q", lt, got)
		}
	}
}

func TestIPProtocolString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || ProtoICMP.String() != "icmp" {
		t.Error("protocol names wrong")
	}
}

func TestBuilderIPIDsIncrease(t *testing.T) {
	b := NewBuilder(0)
	p1 := b.Syn(tRef, Endpoint{srcA, 1}, Endpoint{dstA, 80}, 0)
	p2 := b.Syn(tRef, Endpoint{srcA, 1}, Endpoint{dstA, 80}, 0)
	if p2.IPv4.ID == p1.IPv4.ID {
		t.Error("IP IDs should differ")
	}
}

func TestDecodeSkipsIPOptions(t *testing.T) {
	// Hand-build an IPv4 header with IHL=6 (4 bytes of options).
	b := NewBuilder(0)
	inner := b.UDPPacket(tRef, Endpoint{srcA, 53}, Endpoint{dstA, 9999}, []byte("x"))
	wire := inner.Marshal()
	opts := make([]byte, 0, len(wire)+4)
	opts = append(opts, wire[:20]...)
	opts[0] = 0x46                  // IHL 6
	opts = append(opts, 1, 1, 1, 0) // NOP NOP NOP EOL
	opts = append(opts, wire[20:]...)
	// Fix total length and checksum.
	be.PutUint16(opts[2:4], uint16(len(opts)))
	be.PutUint16(opts[10:12], 0)
	be.PutUint16(opts[10:12], Checksum(opts[:24]))

	got, err := DecodeIP(opts, tRef)
	if err != nil {
		t.Fatal(err)
	}
	if got.UDP.SrcPort != 53 {
		t.Errorf("src port through options = %d", got.UDP.SrcPort)
	}
}

func BenchmarkMarshalSyn(b *testing.B) {
	bd := NewBuilder(0)
	p := bd.Syn(tRef, Endpoint{srcA, 40001}, Endpoint{dstA, 80}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkDecodeSyn(b *testing.B) {
	bd := NewBuilder(0)
	wire := bd.Syn(tRef, Endpoint{srcA, 40001}, Endpoint{dstA, 80}, 1).Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeIP(wire, tRef); err != nil {
			b.Fatal(err)
		}
	}
}
