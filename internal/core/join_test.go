package core

// The cross-technique event join inside one engine: the window between a
// freeze and its expiry notices, which only the engine's own seam reaches.
// The join's whole-engine properties (one discovery and one upgrade per
// arrival, at shards 1/2/8, inline and running, with reports racing
// packets, across restores) are checked by the whole-system simulation,
// internal/systest.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
)

// genRetentionReports sweeps genRetentionTrace's services every six hours:
// each sweep finds alternate services open (so with an active TTL under
// twelve hours probe answers lapse between a service's sweeps) plus a few
// addresses the trace never shows.
func genRetentionReports() []*probe.ScanReport {
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	ports := []uint16{22, 80, 443}
	var out []*probe.ScanReport
	for i := 0; i < 6; i++ {
		start := base.Add(time.Duration(2+6*i) * time.Hour)
		rep := &probe.ScanReport{ID: i, Started: start, Finished: start.Add(10 * time.Minute)}
		for s := 0; s < 48+8; s++ {
			state := probe.StateClosed
			if (s+i)%2 == 0 {
				state = probe.StateOpen
			}
			rep.TCP = append(rep.TCP, probe.TCPResult{Time: start.Add(time.Duration(s) * time.Second),
				Addr: campusPfx.Base() + netaddr.V4(700+s), Port: ports[s%3], State: state})
		}
		out = append(out, rep)
	}
	return out
}

// joinRetention expires both techniques' evidence well inside the retention
// trace, so answers lapse between a service's sweeps.
var joinRetention = RetentionPolicy{PassiveTTL: 3 * time.Hour, ActiveTTL: 7 * time.Hour}

// TestRediscoveryBetweenFreezeAndExpiryPublication: a record the freeze
// expired is gone from its shard at once, but its expiry notice is
// published later, by advance. A packet applied in that window re-creates
// the record, and must be announced — with the join's passive half kept in
// a table cleared only at publication, the rediscovery found the stale
// entry and stayed silent, leaving a service that is in every later
// inventory and in no event. advance freezes its active side exactly in the
// window, and its beforeFreezeActive seam is where this test re-observes the
// service.
func TestRediscoveryBetweenFreezeAndExpiryPublication(t *testing.T) {
	key := ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}
	s := NewHybrid(campusPfx, nil, 1, nil)
	s.SetRetention(RetentionPolicy{PassiveTTL: time.Hour})
	sub := s.SubscribeFiltered(16, func(ev Event) bool { return ev.Key == key })
	s.Run(context.Background())

	s.HandleBatch([]packet.Packet{*synAck(t0, srv, 80, cli)})
	s.Snapshot()
	s.HandleBatch([]packet.Packet{*synAck(t0.Add(2*time.Hour), srv2, 80, cli)}) // watermark past key's deadline
	s.beforeFreezeActive = func() {
		s.HandleBatch([]packet.Packet{*synAck(t0.Add(3*time.Hour), srv, 80, cli2)})
		s.Flush()
	}
	s.Snapshot()
	s.beforeFreezeActive = nil
	inv := s.Snapshot()
	s.Close()

	var got []string
	for _, ev := range drainEvents(sub) {
		got = append(got, fmt.Sprintf("%s@%s", ev.Kind, ev.Time.Sub(t0)))
	}
	want := []string{"service-discovered@0s", "service-discovered@3h0m0s", "service-expired@1h0m0s"}
	if !slices.Equal(got, want) {
		t.Errorf("events for the service:\n got %q\nwant %q", got, want)
	}
	if rec, ok := inv.Record(key); !ok || !rec.FirstSeen().Equal(t0.Add(3*time.Hour)) {
		t.Errorf("inventory record = %v/%v, want the incarnation first seen at +3h", rec, ok)
	}
}

// A snapshot that decides an expiry announces it even when Close lands
// between its freeze and the announcement: the stream ends only after the
// snapshot has published.
func TestSnapshotRacingCloseAnnouncesItsExpiries(t *testing.T) {
	key := ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}
	s := NewHybrid(campusPfx, nil, 1, nil)
	s.SetRetention(RetentionPolicy{PassiveTTL: time.Hour})
	sub := s.SubscribeFiltered(16, func(ev Event) bool { return ev.Key == key })
	s.HandleBatch([]packet.Packet{*synAck(t0, srv, 80, cli)})
	s.HandleBatch([]packet.Packet{*synAck(t0.Add(2*time.Hour), srv2, 80, cli)}) // watermark past key's deadline
	closed := make(chan struct{})
	s.beforeFreezeActive = func() {
		go func() { s.Close(); close(closed) }()
		for s.open() {
			runtime.Gosched()
		}
	}
	s.Snapshot()
	<-closed

	var got []string
	for _, ev := range drainEvents(sub) {
		got = append(got, fmt.Sprintf("%s@%s", ev.Kind, ev.Time.Sub(t0)))
	}
	if want := []string{"service-discovered@0s", "service-expired@1h0m0s"}; !slices.Equal(got, want) {
		t.Errorf("events for the service:\n got %q\nwant %q", got, want)
	}
}
