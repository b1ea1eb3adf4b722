// Sampling: a deployment study for constrained monitors (paper Section
// 5.3) — how much discovery do you lose if the capture hardware can only
// keep the first N minutes of each hour? The paper's answer: 30 of 60
// minutes costs only ~5% of servers; even 10 minutes costs ~11%.
package main

import (
	"fmt"
	"log"
	"time"

	"servdisc"
	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/sim"
	"servdisc/internal/traffic"
)

func main() {
	cfg := campus.DefaultSemesterConfig()
	cfg.StaticAddrs, cfg.StaticSubnets = 4096, 8
	cfg.DHCPAddrs, cfg.WirelessAddrs, cfg.PPPAddrs, cfg.VPNAddrs = 256, 128, 128, 64
	cfg.StaticLiveHosts, cfg.StaticServers, cfg.PopularServers = 900, 450, 10
	cfg.DHCPHosts, cfg.PPPHosts, cfg.VPNHosts, cfg.WirelessHosts = 150, 60, 40, 50
	cfg.FlowsPerDay = 20000

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

	// One continuous pipeline (the facade's standard assembly) plus one
	// reduced capture per sampling window, mirrored off the same monitor
	// so every variant observes identical traffic.
	pl, err := servdisc.NewPipeline(servdisc.Config{
		Campus:   campusPfx.String(),
		UDPPorts: []uint16{},
		Academic: net.AcademicClients(),
	})
	if err != nil {
		log.Fatal(err)
	}
	windows := []time.Duration{
		2 * time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute,
	}
	discoverers := map[string]*core.PassiveDiscoverer{}
	for _, w := range windows {
		pd := core.NewPassiveDiscoverer(campusPfx, nil)
		discoverers[fmt.Sprintf("%v/hour", w)] = pd
		tap, err := capture.NewTap(capture.LinkCommercial1, capture.PaperFilter,
			capture.NewFixedWindowSampler(cfg.Start, w), pd)
		if err != nil {
			log.Fatal(err)
		}
		pl.Monitor().AddMirror(tap)
	}
	traffic.NewGenerator(net, eng, pl)

	eng.RunUntil(cfg.Start.Add(5 * 24 * time.Hour))

	base := len(pl.Snapshot().AddrFirstSeen(nil))
	fmt.Printf("continuous monitoring over 5 days found %d server addresses\n\n", base)
	fmt.Printf("%-14s %10s %10s\n", "capture", "servers", "of full")
	for _, w := range windows {
		pd := discoverers[fmt.Sprintf("%v/hour", w)]
		n := len(core.NewInventory(pd).AddrFirstSeen(nil))
		fmt.Printf("%-14s %10d %9.1f%%\n",
			fmt.Sprintf("%dmin/hour", int(w.Minutes())), n, 100*float64(n)/float64(base))
	}
	fmt.Println("\nthe relationship is sublinear: half the capture loses only a few")
	fmt.Println("percent, because what matters is whether a scan or a rare flow")
	fmt.Println("happens to land inside a sampled window.")
}
