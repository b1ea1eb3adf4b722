package pipeline_test

import (
	"testing"
	"time"

	"servdisc/internal/capture"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
)

// TestStageCountsAndFilters pins the StageCounters contract on the one
// filtering stage in the tree, a capture.Tap: of ten alternating
// SYN-ACK / bare-ACK packets the flag filter keeps half, and In, Out and
// Dropped say so.
func TestStageCountsAndFilters(t *testing.T) {
	server := packet.Endpoint{Addr: netaddr.MustParseV4("128.125.7.9"), Port: 80}
	client := netaddr.MustParseV4("64.1.2.3")
	ref := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	bld := packet.NewBuilder(0)
	var batch []packet.Packet
	for i := 0; i < 10; i++ {
		flags := packet.FlagSYN | packet.FlagACK
		if i%2 == 1 {
			flags = packet.FlagACK
		}
		batch = append(batch, *bld.TCPPacket(ref.Add(time.Duration(i)*time.Millisecond), server,
			packet.Endpoint{Addr: client + netaddr.V4(i), Port: 40000}, flags, 1, 2, nil))
	}
	kept := 0
	tap, err := capture.NewTap(capture.LinkCommercial1, "synack", nil,
		pipeline.BatchFunc(func(b []packet.Packet) { kept += len(b) }))
	if err != nil {
		t.Fatal(err)
	}
	tap.HandleBatch(batch)
	if kept != 5 {
		t.Fatalf("tap kept %d of 10", kept)
	}
	if c := tap.Counters(); c.In() != 10 || c.Out() != 5 || c.Dropped() != 5 {
		t.Errorf("counters = %d/%d/%d", c.In(), c.Out(), c.Dropped())
	}
}
