package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/federate"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
)

// TestFeedcat renders a two-frame feed and reports where a damaged third
// frame starts.
func TestFeedcat(t *testing.T) {
	ev := core.Event{Kind: core.EventScannerDetected, Time: time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC),
		Scanner: core.ScannerInfo{Source: netaddr.MustParseV4("211.1.1.1"), UniqueDsts: 150, RstDsts: 120}}
	key := core.ServiceKey{Addr: netaddr.MustParseV4("128.125.1.7"), Proto: packet.ProtoTCP, Port: 443}
	var feed bytes.Buffer
	enc := federate.NewEncoder(&feed)
	for _, f := range []federate.Frame{
		{V: federate.WireVersion, Type: federate.FrameHello, Site: "east", Epoch: 7},
		{V: federate.WireVersion, Type: federate.FrameEvent, Site: "east", Epoch: 7, Seq: 1, Event: &ev},
	} {
		if err := enc.Encode(&f); err != nil {
			t.Fatal(err)
		}
	}
	good := feed.Len()
	seal := federate.Snapshot{Retractions: []federate.Retraction{{Key: key, At: ev.Time, Prov: core.PassiveOnly}}}
	if err := enc.Encode(&federate.Frame{V: federate.WireVersion, Type: federate.FrameSeal, Site: "east", Epoch: 7, Seq: 2, Snapshot: &seal}); err != nil {
		t.Fatal(err)
	}
	feed.Bytes()[good+3] ^= 0xFF

	var out bytes.Buffer
	err := run(nil, &feed, &out)
	want := `{"v":7,"type":"hello","site":"east","epoch":7}
{"v":7,"type":"event","site":"east","epoch":7,"seq":1,"event":{"kind":"scanner-detected","time":"2006-12-16T10:00:00Z","scanner":{"source":"211.1.1.1","window":"0001-01-01T00:00:00Z","unique_dsts":150,"rst_dsts":120}}}
`
	if out.String() != want {
		t.Errorf("feedcat printed:\n%s\nwant:\n%s", out.String(), want)
	}
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d:", good)) {
		t.Errorf("feedcat on a damaged frame = %v, want an error at byte offset %d", err, good)
	}
}

// TestFeedcatDial runs the address form against a real publisher over
// loopback: feedcat has to send the hello the publisher waits for, and a
// finished site answers with its hello and final snapshot, then hangs up.
func TestFeedcatDial(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	eng := core.NewHybrid(campus, nil, 1, []uint16{443})
	at := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	eng.AddReport(&probe.ScanReport{ID: 1, Started: at, Finished: at.Add(time.Minute), TCP: []probe.TCPResult{
		{Time: at, Addr: netaddr.MustParseV4("128.125.1.7"), Port: 443, State: probe.StateOpen},
	}})
	pub := federate.NewPublisher("east", eng)
	eng.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go pub.Serve(ctx, ln)

	var out bytes.Buffer
	if err := run([]string{ln.Addr().String()}, nil, &out); err != nil {
		t.Fatalf("feedcat %s: %v", ln.Addr(), err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"type":"hello","site":"east"`) ||
		!strings.Contains(lines[1], `"type":"snapshot"`) || !strings.Contains(lines[1], `"addr":"128.125.1.7"`) {
		t.Errorf("feedcat printed:\n%s\nwant the site's hello, then a snapshot holding 128.125.1.7", out.String())
	}
}
