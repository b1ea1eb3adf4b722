package experiments

import (
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/stats"
)

// Well-known ports of the all-ports lab study (Figure 11's labels).
const (
	labPortDiscard = 9
	labPortDaytime = 13
	labPortFTP     = 21
	labPortSSH     = 22
	labPortSMTP    = 25
	labPortTime    = 37
	labPortHTTP    = 80
	labPortSunRPC  = 111
	labPortEpmap   = 135
	labPortNetBIOS = 139
	labPortXFonts  = 7100
)

// labConfig is the DTCPall population: a single /24 of fixed addresses,
// mostly student lab machines (Section 5.4).
func labConfig() campus.Config {
	c := campus.DefaultSemesterConfig()
	c.Seed = 0x1AB5EED
	c.Start = time.Date(2006, 8, 26, 10, 0, 0, 0, time.UTC)
	c.StaticAddrs = 256
	c.StaticSubnets = 1
	c.DHCPAddrs, c.WirelessAddrs, c.PPPAddrs, c.VPNAddrs = 0, 0, 0, 0
	c.StaticLiveHosts = 0
	c.StaticServers = 0
	c.PopularServers = 0
	c.StealthFirewalled = 0
	c.ServerDeaths = 0
	c.StaticServerBirthsPerDay = 0.4 // the handful of post-scan web births
	c.DHCPHosts, c.PPPHosts, c.VPNHosts, c.WirelessHosts = 0, 0, 0, 0
	c.ClientPool = 4000
	// One host dominates: 97% of subnet connections (Section 5.4).
	c.FlowsPerDay = 5000
	c.PopularFlowShare = 0.97
	// SSH and FTP external scans sweep the subnet during the window.
	c.BigScans = []campus.ScanConfig{
		{StartOffset: 26*time.Hour + 35*time.Minute, Port: labPortSSH, Coverage: 1.0},
		{StartOffset: 3*24*time.Hour + 9*time.Hour, Port: labPortFTP, Coverage: 1.0},
	}
	c.SmallScannersPerDay = 0.8
	c.SmallScanMinAddrs = 64
	c.SmallScanMaxAddrs = 256
	c.UDP = campus.UDPConfig{}
	return c
}

// buildLabPopulation installs the lab machines: unix workstations with
// remote-access services, NT machines with local-only RPC services, a few
// web servers, and the single dominant server.
func buildLabPopulation(net *campus.Network, cfg campus.Config) error {
	rng := stats.NewRNG(cfg.Seed).Derive("lab")
	tcp := func(port uint16, rate float64, localOnly bool) campus.Service {
		return campus.Service{
			Port:       port,
			Proto:      packet.ProtoTCP,
			RatePerDay: rate,
			LocalOnly:  localOnly,
			Clients:    net.RandomClients(1 + rng.Poisson(1)),
		}
	}

	// The dominant server: one busy web host serving 97% of connections.
	_, err := net.AddHost(campus.HostSpec{
		Class:    campus.ClassStatic,
		AlwaysUp: true,
		Services: []campus.Service{{
			Port: labPortHTTP, Proto: packet.ProtoTCP,
			Popular: true, PopularWeight: 1.0,
			Content: campus.ContentCustom,
		}},
	})
	if err != nil {
		return err
	}

	// 140 unix lab machines: ssh+ftp everywhere, sunrpc local-only, a few
	// with X font servers and inetd simple services.
	for i := 0; i < 140; i++ {
		svcs := []campus.Service{
			tcp(labPortSSH, rng.LogUniform(0.005, 0.8), false),
			tcp(labPortFTP, rng.LogUniform(0.002, 0.3), false),
			tcp(labPortSunRPC, 0, true),
		}
		if i%5 == 0 {
			svcs = append(svcs, tcp(labPortXFonts, 0, true))
		}
		if i%7 == 0 {
			svcs = append(svcs,
				tcp(labPortDiscard, 0, true),
				tcp(labPortDaytime, 0, true),
				tcp(labPortTime, 0, true))
		}
		if _, err := net.AddHost(campus.HostSpec{
			Class: campus.ClassStatic, AlwaysUp: true, Services: svcs,
		}); err != nil {
			return err
		}
	}

	// 95 NT machines: epmap + NetBIOS session, strictly local.
	for i := 0; i < 95; i++ {
		if _, err := net.AddHost(campus.HostSpec{
			Class: campus.ClassStatic, AlwaysUp: true, SilentUDP: true,
			Services: []campus.Service{
				tcp(labPortEpmap, 0, true),
				tcp(labPortNetBIOS, 0, true),
			},
		}); err != nil {
			return err
		}
	}

	// A dozen departmental web servers, one running SMTP too, plus a few
	// ephemeral high-port services only passive ever sees.
	for i := 0; i < 12; i++ {
		svcs := []campus.Service{
			tcp(labPortHTTP, rng.LogUniform(0.05, 3), false),
		}
		if i == 0 {
			svcs = append(svcs, tcp(labPortSMTP, 0.5, false))
		}
		if i%4 == 0 {
			svcs = append(svcs, tcp(uint16(30000+rng.Intn(30000)), rng.LogUniform(0.2, 2), false))
		}
		svcs[0].Content = campus.ContentDefault
		if _, err := net.AddHost(campus.HostSpec{
			Class: campus.ClassStatic, AlwaysUp: true, Services: svcs,
		}); err != nil {
			return err
		}
	}
	return nil
}

// allPorts enumerates the full TCP port range the DTCPall sweep probes.
func allPorts() []uint16 {
	out := make([]uint16, 65535)
	for i := range out {
		out[i] = uint16(i + 1)
	}
	return out
}

// Lab10d builds DTCPall: a /24 of lab machines, ten days of passive
// observation, and one all-ports sweep taking nearly 24 hours, as in the
// paper.
func Lab10d() (*Dataset, error) {
	cfg := labConfig()
	net, err := campus.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	if err := buildLabPopulation(net, cfg); err != nil {
		return nil, err
	}
	return buildOn(net, BuildOptions{
		Cfg:             cfg,
		Days:            10,
		ScanStartOffset: time.Hour,
		ScanEvery:       20 * 24 * time.Hour, // exactly one sweep
		ScanCount:       1,
		// 256 addrs × 65,535 ports in ~23h ≈ 200 probes/s.
		ScanRate: 100,
		Shards:   2,
		TCPPorts: allPorts(),
	})
}

// HostPortMatrix extracts Figure 11's scatter data: for each lab address,
// the open ports found by each method.
type HostPortMatrix struct {
	// Rows are sorted by address.
	Rows []HostPorts
}

// HostPorts is one address's open-port sets.
type HostPorts struct {
	Addr    netaddr.V4
	Active  []uint16
	Passive []uint16
}

// Fig11Matrix builds the host × port scatter from a lab dataset.
func Fig11Matrix(d *Dataset) HostPortMatrix {
	byAddr := make(map[netaddr.V4]*HostPorts)
	get := func(a netaddr.V4) *HostPorts {
		hp := byAddr[a]
		if hp == nil {
			hp = &HostPorts{Addr: a}
			byAddr[a] = hp
		}
		return hp
	}
	d.Inventory.EachService(func(key core.ServiceKey, rec *core.PassiveRecord, p core.Provenance, _, _ time.Time) bool {
		if p != core.PassiveOnly {
			get(key.Addr).Active = append(get(key.Addr).Active, key.Port)
		}
		if rec != nil && key.Proto == packet.ProtoTCP {
			get(key.Addr).Passive = append(get(key.Addr).Passive, key.Port)
		}
		return true
	})
	var m HostPortMatrix
	for _, a := range sortedAddrs(byAddr) {
		hp := byAddr[a]
		sortPorts(hp.Active)
		sortPorts(hp.Passive)
		m.Rows = append(m.Rows, *hp)
	}
	return m
}

func sortedAddrs(m map[netaddr.V4]*HostPorts) []netaddr.V4 {
	out := make([]netaddr.V4, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sortPorts(p []uint16) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j] < p[j-1]; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}
