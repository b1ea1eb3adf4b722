// Vulnaudit: the "vulnerability disclosure" workflow from the paper's
// introduction — a flaw drops for a service, and the operator must find
// every instance fast. Active probing wins this race (one sweep finds 98%
// of servers in ~2 hours), but the passive inventory contributes the
// firewalled servers probes cannot see, so the audit unions both.
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"servdisc"
	"servdisc/internal/campus"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/sim"
	"servdisc/internal/traffic"
)

func main() {
	cfg := campus.DefaultSemesterConfig()
	cfg.StaticAddrs, cfg.StaticSubnets = 4096, 8
	cfg.DHCPAddrs, cfg.WirelessAddrs, cfg.PPPAddrs, cfg.VPNAddrs = 256, 128, 128, 64
	cfg.StaticLiveHosts, cfg.StaticServers, cfg.PopularServers = 900, 500, 10
	cfg.StealthFirewalled = 12
	cfg.DHCPHosts, cfg.PPPHosts, cfg.VPNHosts, cfg.WirelessHosts = 150, 60, 40, 50
	cfg.FlowsPerDay = 25000

	net, err := campus.NewNetwork(cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng := sim.New(cfg.Start)
	campus.NewDynamics(net, eng)

	campusPfx, err := netaddr.NewPrefix(net.Plan().Base(), 16)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := servdisc.NewPipeline(servdisc.Config{
		Campus:   campusPfx.String(),
		UDPPorts: []uint16{},
		Academic: net.AcademicClients(),
	})
	if err != nil {
		log.Fatal(err)
	}
	traffic.NewGenerator(net, eng, pl)

	// Day 1-3: passive monitoring runs as part of normal operation.
	eng.RunUntil(cfg.Start.Add(72 * time.Hour))

	// Day 3, 09:00: an SSH vulnerability is disclosed. Sweep port 22 NOW.
	disclosure := eng.Now()
	scanner := probe.NewSimScanner(&probe.SimBackend{Net: net}, eng, probe.ScanConfig{
		Targets:  net.Plan().ProbeTargets(),
		TCPPorts: []uint16{campus.PortSSH},
		Rate:     25,
		Shards:   2,
	})
	var sweep *probe.ScanReport
	scanner.Schedule(disclosure, func(rep *probe.ScanReport) { sweep = rep })
	eng.RunUntil(disclosure.Add(6 * time.Hour))
	if sweep == nil {
		log.Fatal("sweep did not finish")
	}
	pl.AddReport(sweep)

	keepSSH := func(k core.ServiceKey) bool {
		return k.Proto == packet.ProtoTCP && k.Port == campus.PortSSH
	}
	an := &core.Analysis{Inventory: pl.Snapshot(), Keep: keepSSH}

	probed := an.ActiveAddrs()
	heard := an.PassiveAddrs()
	fmt.Printf("sweep finished in %v\n", sweep.Finished.Sub(sweep.Started).Round(time.Minute))
	fmt.Printf("ssh servers answering probes now: %d\n", len(probed))
	fmt.Printf("ssh servers in the passive inventory: %d\n", len(heard))

	// The audit list = union; passive-only entries are the servers a
	// probe-only audit would have missed entirely.
	var missed []netaddr.V4
	for addr := range heard {
		if _, ok := probed[addr]; !ok {
			missed = append(missed, addr)
		}
	}
	slices.Sort(missed)
	for _, addr := range missed {
		fmt.Printf("  probe-invisible ssh server: %s (firewalled or offline at sweep time)\n", addr)
	}
	fmt.Printf("audit list: %d hosts (%d contributed only by passive monitoring)\n",
		len(probed)+len(missed), len(missed))
}
