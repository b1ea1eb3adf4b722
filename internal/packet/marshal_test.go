package packet

import (
	"encoding/hex"
	"testing"
)

// TestIPProtocolTextRoundTrip pins the stable wire names and the strict
// fallback form: "proto(N)" must parse exactly, with no trailing bytes.
func TestIPProtocolTextRoundTrip(t *testing.T) {
	for _, p := range []IPProtocol{ProtoICMP, ProtoTCP, ProtoUDP, IPProtocol(47), IPProtocol(255)} {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		var back IPProtocol
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if back != p {
			t.Errorf("%q round-tripped to %d, want %d", text, back, p)
		}
	}
	for _, bad := range []string{"", "TCP", "proto(6)junk", "proto(", "proto()", "proto(999)", "proto(6", "6"} {
		var p IPProtocol
		if err := p.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("unmarshal %q: expected an error, got %v", bad, p)
		}
	}
}

// marshalCase is one packet shape Marshal serializes.
type marshalCase struct {
	name string
	p    *Packet
}

// marshalCases is every transport Marshal serializes, each with and
// without an Ethernet header and a payload. The payloads have odd
// lengths, so the checksums pad a trailing byte.
func marshalCases() []marshalCase {
	b := NewBuilder(0)
	client, server := Endpoint{srcA, 40001}, Endpoint{dstA, 80}
	payload := []byte("GET / HTTP/1.0\r\n\r")
	var out []marshalCase
	for _, eth := range []bool{false, true} {
		for _, pay := range []bool{false, true} {
			var data []byte
			if pay {
				data = payload
			}
			udp := b.UDPPacket(tRef, client, Endpoint{dstA, 53}, data)
			icmp := &Packet{
				IPv4:   b.ip(srcA, dstA, ProtoICMP),
				ICMPv4: ICMPv4{Type: ICMPEchoRequest, Rest: [4]byte{0x12, 0x34, 0, 1}},
				Layers: []LayerType{LayerTypeIPv4, LayerTypeICMPv4},
			}
			if pay {
				icmp = b.PortUnreachable(tRef, dstA, b.UDPPacket(tRef, client, Endpoint{dstA, 137}, []byte{0}))
			}
			for _, p := range []*Packet{b.TCPPacket(tRef, client, server, FlagPSH|FlagACK, 7, 9, data), udp, icmp} {
				name := p.Layers[1].String()
				if eth {
					p.Ethernet = Ethernet{Dst: [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Src: [6]byte{0, 1, 2, 3, 4, 5}, EtherType: EtherTypeIPv4}
					p.Layers = append([]LayerType{LayerTypeEthernet}, p.Layers...)
					name = "eth/" + name
				}
				if pay {
					name += "+payload"
				}
				out = append(out, marshalCase{name, p})
			}
		}
	}
	return out
}

// TestMarshalGolden pins Marshal's bytes for every case: the wire form
// each packet had before Marshal wrote into one buffer.
func TestMarshalGolden(t *testing.T) {
	golden := map[string]string{
		"TCP":                "450000280003400040067c8c807d010a4223fa969c41005000000007000000095018ffff54ea0000",
		"UDP":                "4500001c0001400040117c8f807d010a4223fa969c4100350008a526",
		"ICMPv4":             "4500001c0002400040017c9e807d010a4223fa960800e5ca12340001",
		"TCP+payload":        "450000390008400040067c76807d010a4223fa969c41005000000007000000095018ffff76430000474554202f20485454502f312e300d0a0d",
		"UDP+payload":        "4500002d0004400040117c7b807d010a4223fa969c4100350019c66e474554202f20485454502f312e300d0a0d",
		"ICMPv4+payload":     "450000380007400040017c7d4223fa96807d010a03036029000000004500001c0006400040117c8a807d010a4223fa969c41008900090000",
		"eth/TCP":            "ffffffffffff000102030405080045000028000b400040067c84807d010a4223fa969c41005000000007000000095018ffff54ea0000",
		"eth/UDP":            "ffffffffffff00010203040508004500001c0009400040117c87807d010a4223fa969c4100350008a526",
		"eth/ICMPv4":         "ffffffffffff00010203040508004500001c000a400040017c96807d010a4223fa960800e5ca12340001",
		"eth/TCP+payload":    "ffffffffffff0001020304050800450000390010400040067c6e807d010a4223fa969c41005000000007000000095018ffff76430000474554202f20485454502f312e300d0a0d",
		"eth/UDP+payload":    "ffffffffffff00010203040508004500002d000c400040117c73807d010a4223fa969c4100350019c66e474554202f20485454502f312e300d0a0d",
		"eth/ICMPv4+payload": "ffffffffffff000102030405080045000038000f400040017c754223fa96807d010a03036029000000004500001c000e400040117c82807d010a4223fa969c41008900090000",
	}
	cases := marshalCases()
	if len(cases) != len(golden) {
		t.Fatalf("%d cases, %d golden", len(cases), len(golden))
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.p.Marshal()); got != golden[c.name] {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, golden[c.name])
		}
	}
}

// TestMarshalAllocatesOnce pins Marshal to one allocation, the returned
// buffer, for every case.
func TestMarshalAllocatesOnce(t *testing.T) {
	for _, c := range marshalCases() {
		if n := testing.AllocsPerRun(100, func() { c.p.Marshal() }); n != 1 {
			t.Errorf("%s: Marshal allocates %v times, want 1", c.name, n)
		}
	}
}
