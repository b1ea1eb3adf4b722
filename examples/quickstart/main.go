// Quickstart: simulate a small campus for one day, run passive monitoring
// and one active sweep side by side, and compare what each method found —
// the paper's core experiment in fifty lines. The passive side is the
// servdisc facade's standard pipeline: link assigner → filtered taps →
// sharded discoverer.
package main

import (
	"fmt"
	"log"
	"time"

	"servdisc"
	"servdisc/internal/campus"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/probe"
	"servdisc/internal/sim"
	"servdisc/internal/traffic"
)

func main() {
	// A small campus: ~2k addresses, a few hundred servers.
	cfg := campus.DefaultSemesterConfig()
	cfg.StaticAddrs, cfg.StaticSubnets = 2048, 8
	cfg.DHCPAddrs, cfg.WirelessAddrs, cfg.PPPAddrs, cfg.VPNAddrs = 256, 128, 128, 64
	cfg.StaticLiveHosts, cfg.StaticServers, cfg.PopularServers = 500, 250, 8
	cfg.StealthFirewalled, cfg.ServerDeaths = 5, 0
	cfg.DHCPHosts, cfg.PPPHosts, cfg.VPNHosts, cfg.WirelessHosts = 120, 50, 30, 40
	cfg.FlowsPerDay = 20000

	net, err := campus.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.New(cfg.Start)
	campus.NewDynamics(net, eng)

	// Passive side: the facade pipeline with the paper's filter on both
	// commercial links.
	campusPfx, err := netaddr.NewPrefix(net.Plan().Base(), 16)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := servdisc.NewPipeline(servdisc.Config{
		Campus:   campusPfx.String(),
		Academic: net.AcademicClients(),
	})
	if err != nil {
		log.Fatal(err)
	}
	traffic.NewGenerator(net, eng, pl)

	// Active side: one half-open sweep of the five selected ports, its
	// report reconciled into the same engine.
	scanner := probe.NewSimScanner(&probe.SimBackend{Net: net}, eng, probe.ScanConfig{
		Targets:  net.Plan().ProbeTargets(),
		TCPPorts: campus.SelectedTCPPorts,
		Rate:     10,
		Shards:   2,
	})
	scanner.Schedule(cfg.Start.Add(time.Hour), pl.AddReport)

	// Run one simulated day.
	eng.RunUntil(cfg.Start.Add(24 * time.Hour))

	an := &core.Analysis{Inventory: pl.Snapshot()}
	row := an.Completeness(cfg.Start.Add(24*time.Hour), 1)
	fmt.Printf("union of both methods:  %4d server addresses\n", row.Union)
	fmt.Printf("found by active sweep:  %4d (%d only by active)\n", row.Active, row.ActiveOnly)
	fmt.Printf("found passively (24h):  %4d (%d only passively)\n", row.Passive, row.PassiveOnly)
	fmt.Printf("found by both:          %4d\n", row.Both)

	// The passive-only finds are the interesting ones: firewalled or
	// newborn services active probing cannot see.
	for _, fw := range an.FirewallCandidates() {
		fmt.Printf("possible firewall at %s (mixed response: %v, active during scan: %v)\n",
			fw.Addr, fw.MixedResponse, fw.ActiveDuringScan)
	}
}
