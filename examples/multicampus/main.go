// Multicampus: the federation demo — one simulated campaign split across
// two vantage points, reunited into a global inventory.
//
// The paper's campus had two commercial peerings; border traffic splits
// deterministically between them. Here each link is monitored by its own
// independent discovery engine (as if the taps lived in different
// buildings, or different campuses of one university system), and each
// engine publishes its site-tagged stream over the internal/federate wire
// format. A single aggregator consumes both feeds — snapshot bootstrap
// plus live events, exactly what `passived -publish` serves to
// cmd/federated over TCP — and reconciles them: a server whose clients
// arrive over both links becomes one global record credited to two sites,
// and the final dump is byte-identical no matter which feed arrived
// first.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"servdisc"
	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/federate"
	"servdisc/internal/netaddr"
	"servdisc/internal/probe"
	"servdisc/internal/sim"
	"servdisc/internal/traffic"
)

func main() {
	// A small campus: ~2k addresses, a few hundred servers (see
	// examples/quickstart for the baseline single-vantage version).
	cfg := campus.DefaultSemesterConfig()
	cfg.StaticAddrs, cfg.StaticSubnets = 2048, 8
	cfg.DHCPAddrs, cfg.WirelessAddrs, cfg.PPPAddrs, cfg.VPNAddrs = 256, 128, 128, 64
	cfg.StaticLiveHosts, cfg.StaticServers, cfg.PopularServers = 500, 250, 8
	cfg.StealthFirewalled, cfg.ServerDeaths = 5, 0
	cfg.DHCPHosts, cfg.PPPHosts, cfg.VPNHosts, cfg.WirelessHosts = 120, 50, 30, 40
	cfg.FlowsPerDay = 20000

	net_, err := campus.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.New(cfg.Start)
	campus.NewDynamics(net_, eng)

	campusPfx, err := netaddr.NewPrefix(net_.Plan().Base(), 16)
	if err != nil {
		log.Fatal(err)
	}

	// One engine per vantage point: each monitors a single commercial
	// peering, so each sees only the traffic the border router happens to
	// route over its link.
	sites := []struct {
		id   federate.SiteID
		link capture.LinkID
	}{
		{"commercial-1", capture.LinkCommercial1},
		{"commercial-2", capture.LinkCommercial2},
	}
	ctx := context.Background()
	pipelines := make([]*servdisc.Pipeline, len(sites))
	pubs := make([]*federate.Publisher, len(sites))
	for i, s := range sites {
		pl, err := servdisc.NewPipeline(servdisc.Config{
			Campus:   campusPfx.String(),
			Academic: net_.AcademicClients(),
			Links:    []capture.LinkID{s.link},
		})
		if err != nil {
			log.Fatal(err)
		}
		pipelines[i] = pl
		pubs[i] = federate.NewPublisher(s.id, pl)
	}
	traffic.NewGenerator(net_, eng, pipelines[0], pipelines[1])

	// Site 1 also runs an active sweep an hour in; its report reconciles
	// into that site's engine, so the federation carries provenance
	// upgrades from one vantage point and passive-only evidence from the
	// other.
	scanner := probe.NewSimScanner(&probe.SimBackend{Net: net_}, eng, probe.ScanConfig{
		Targets:  net_.Plan().ProbeTargets(),
		TCPPorts: campus.SelectedTCPPorts,
		Rate:     10,
		Shards:   2,
	})
	scanner.Schedule(cfg.Start.Add(time.Hour), func(rep *probe.ScanReport) {
		pipelines[0].AddReport(rep)
	})

	// The aggregator consumes both feeds over the wire format (in-memory
	// pipes standing in for the TCP connections cmd/federated dials).
	agg := federate.NewAggregator()
	feedDone := make([]chan error, len(pubs))
	for i, pub := range pubs {
		feedDone[i] = connectFeed(ctx, agg, pub)
	}

	// Run one simulated day with everything attached: the aggregator's
	// feeds race the live generator, exactly like production.
	eng.RunUntil(cfg.Start.Add(24 * time.Hour))

	// Sites quiesce: close the engines (ending the live feeds), then let
	// the aggregator reconnect once per site for the final snapshot — the
	// same catch-up a restarted cmd/federated performs.
	for i, pl := range pipelines {
		pl.Close()
		if err := <-feedDone[i]; err != nil {
			log.Fatalf("feed %s: %v", sites[i].id, err)
		}
		if err := <-connectFeed(ctx, agg, pubs[i]); err != nil {
			log.Fatalf("reconnect %s: %v", sites[i].id, err)
		}
	}

	// The global picture: cross-site dedup in action.
	var bothSites, oneSite int
	for _, g := range agg.Services() {
		if len(g.Sites) > 1 {
			bothSites++
		} else {
			oneSite++
		}
	}
	fmt.Printf("global inventory: %d services across %d sites\n",
		agg.NumServices(), len(agg.Sites()))
	fmt.Printf("  seen from both vantage points: %4d (one record, two site entries)\n", bothSites)
	fmt.Printf("  seen from a single link only:  %4d\n", oneSite)
	// Live-event counts vary with scheduling (a feed that subscribes late
	// recovers the head of the stream from its bootstrap snapshot); the
	// feed drop counters are the health signal that matters.
	for i, st := range agg.Stats() {
		fmt.Printf("site %-13s services=%-4d scans=%d packets=%d feed-dropped=%d\n",
			st.Site, st.Services, st.Scans, st.Packets, pubs[i].FrameCounters().Dropped())
	}

	// The determinism contract: re-aggregating the final snapshots in the
	// opposite feed order reproduces the dump byte for byte.
	reversed := federate.NewAggregator()
	for i := len(pubs) - 1; i >= 0; i-- {
		if err := <-connectFeed(ctx, reversed, pubs[i]); err != nil {
			log.Fatalf("re-aggregate %s: %v", sites[i].id, err)
		}
	}
	if string(agg.Dump()) != string(reversed.Dump()) {
		log.Fatal("federation dumps diverge across feed orders")
	}
	fmt.Println("convergence: dump is byte-identical with feed order reversed")
}

// connectFeed wires one publisher to the aggregator through an in-memory
// connection speaking the federation wire format — the client-speaks-
// first resume protocol FeedClient runs over TCP; the returned channel
// yields the feed's terminal error (nil on clean end-of-stream).
func connectFeed(ctx context.Context, agg *federate.Aggregator, pub *federate.Publisher) chan error {
	c1, c2 := net.Pipe()
	go func() {
		_ = pub.ServeConn(ctx, c1)
		c1.Close()
	}()
	fc := federate.NewFeedClient(agg, "pipe", federate.FeedOptions{})
	done := make(chan error, 1)
	go func() {
		err := fc.RunConn(ctx, c2)
		c2.Close()
		done <- err
	}()
	return done
}
