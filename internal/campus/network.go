package campus

import (
	"fmt"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/stats"
)

// TCPResponse is a host's reaction to an incoming SYN.
type TCPResponse uint8

// TCP responses.
const (
	// TCPNone: no reply (dead address, powered-off host, or firewall drop).
	TCPNone TCPResponse = iota
	// TCPSynAck: service accepted the connection.
	TCPSynAck
	// TCPRst: live host, no service on the port.
	TCPRst
)

// UDPResponse is a host's reaction to a UDP datagram to a given port.
type UDPResponse uint8

// UDP responses.
const (
	// UDPSilent: no reply (dead, dropped, or open-but-mute service).
	UDPSilent UDPResponse = iota
	// UDPReply: service answered the generic probe.
	UDPReply
	// UDPUnreachable: ICMP port unreachable — definitely no service.
	UDPUnreachable
)

// Network is the instantiated campus population: the address plan, every
// host, current address occupancy, and the external client pool. All
// methods are single-goroutine, driven by the simulation engine.
type Network struct {
	cfg  Config
	plan *Plan
	rng  *stats.RNG

	hosts  []*Host
	byAddr map[netaddr.V4]*Host

	// free address pools per transient class.
	free map[AddressClass][]netaddr.V4

	// clients is the external client address pool; the first academic
	// count of them route via Internet2.
	clients  []netaddr.V4
	academic int

	// popular holds the busy static servers for fast traffic generation.
	popular []*Host

	// staticFreeAddrs feeds server births.
	staticFreeAddrs []netaddr.V4
}

// NewNetwork builds the population from the config. Construction is
// deterministic in cfg.Seed.
func NewNetwork(cfg Config) (*Network, error) {
	plan, err := BuildPlan(&cfg)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:    cfg,
		plan:   plan,
		rng:    stats.NewRNG(cfg.Seed).Derive("campus"),
		byAddr: make(map[netaddr.V4]*Host),
		free:   make(map[AddressClass][]netaddr.V4),
	}
	n.buildClients()
	n.buildStatic()
	n.buildTransient()
	return n, nil
}

// Plan exposes the address layout.
func (n *Network) Plan() *Plan { return n.plan }

// Config returns the configuration the network was built from.
func (n *Network) Config() Config { return n.cfg }

// Hosts returns the full host table (ground truth for tests).
func (n *Network) Hosts() []*Host { return n.hosts }

// Clients returns the external client pool.
func (n *Network) Clients() []netaddr.V4 { return n.clients }

// AcademicClients returns the Internet2-routed prefix of the client pool.
func (n *Network) AcademicClients() []netaddr.V4 { return n.clients[:n.academic] }

// External reports whether an address is outside the campus plan.
func (n *Network) External(a netaddr.V4) bool { return !n.plan.Contains(a) }

func (n *Network) buildClients() {
	// Clients sit in distinct /16s far from campus; consecutive addresses
	// within a synthetic pool are fine for the model.
	base := netaddr.MustParseV4("64.0.0.0")
	n.clients = make([]netaddr.V4, n.cfg.ClientPool)
	for i := range n.clients {
		// Spread across /24s so link hashing sees diverse addresses.
		n.clients[i] = base + netaddr.V4(i*7+i/251)
	}
	n.academic = int(float64(n.cfg.ClientPool) * n.cfg.AcademicClientFrac)
}

func (n *Network) newHost(class AddressClass) *Host {
	h := &Host{
		ID:     len(n.hosts),
		Class:  class,
		upSalt: n.rng.Uint64(),
	}
	n.hosts = append(n.hosts, h)
	return h
}

// attach places a host at an address and indexes it.
func (n *Network) attach(h *Host, a netaddr.V4) {
	if prev, ok := n.byAddr[a]; ok && prev != h {
		panic(fmt.Sprintf("campus: address %s double-assigned", a))
	}
	h.attachedAddr = a
	n.byAddr[a] = h
}

// detach removes a host from its current address.
func (n *Network) detach(h *Host) {
	if h.attachedAddr == 0 {
		return
	}
	delete(n.byAddr, h.attachedAddr)
	h.attachedAddr = 0
}

func (n *Network) buildStatic() {
	addrs := n.plan.Addresses(ClassStatic)
	perm := n.rng.Perm(len(addrs))
	next := 0
	take := func() netaddr.V4 {
		a := addrs[perm[next]]
		next++
		return a
	}

	// Popular servers: always up, custom content, busy.
	weights := stats.ZipfWeights(n.cfg.PopularZipfS, n.cfg.PopularServers)
	for i := 0; i < n.cfg.PopularServers; i++ {
		h := n.newHost(ClassStatic)
		h.AlwaysUp = true
		h.HomeAddr = take()
		n.assignServices(h, true)
		for j := range h.Services {
			h.Services[j].Popular = true
			h.Services[j].PopularWeight = weights[i] / float64(len(h.Services))
			h.Services[j].Content = ContentCustom
		}
		n.popular = append(n.popular, h)
		n.attach(h, h.HomeAddr)
	}

	// Rare static servers, including the stealth-firewalled and the early
	// deaths.
	rare := n.cfg.StaticServers - n.cfg.PopularServers
	for i := 0; i < rare; i++ {
		h := n.newHost(ClassStatic)
		h.AlwaysUp = n.rng.Bool(0.97)
		if !h.AlwaysUp {
			h.UpDay, h.UpNight = 0.90, 0.60
		}
		h.HomeAddr = take()
		n.assignServices(h, false)
		if i < n.cfg.StealthFirewalled {
			// Stealth hosts drop probes on service ports but need client
			// traffic dense enough that a long passive watch sees them.
			for j := range h.Services {
				h.Services[j].StealthFW = true
				if h.Services[j].RatePerDay < 0.2 {
					h.Services[j].RatePerDay = 0.2 + n.rng.Float64()
				}
			}
		} else if i < n.cfg.StealthFirewalled+n.cfg.ServerDeaths {
			// Early deaths: busy enough to be overheard in the first
			// half-day, gone within a few days.
			for j := range h.Services {
				h.Services[j].RatePerDay = 3 + 3*n.rng.Float64()
			}
			h.Dies = n.cfg.Start.Add(time.Duration(12+n.rng.Intn(84)) * time.Hour)
		}
		n.attach(h, h.HomeAddr)
	}

	// Live non-server hosts: the RST population.
	for i := 0; i < n.cfg.StaticLiveHosts; i++ {
		h := n.newHost(ClassStatic)
		h.UpDay, h.UpNight = 0.88, 0.55
		h.SilentUDP = n.rng.Bool(n.cfg.UDP.SilentAliveFrac)
		h.HomeAddr = take()
		n.attach(h, h.HomeAddr)
	}

	n.buildUDPPopulation(take)

	// Remaining static addresses stay dark; keep them for births.
	for ; next < len(perm); next++ {
		n.staticFreeAddrs = append(n.staticFreeAddrs, addrs[perm[next]])
	}
}

// buildUDPPopulation places the DUDP dataset's UDP servers on additional
// static hosts (DNS and game servers) and marks a Windows sub-population
// with open NetBIOS ports on the live hosts built above.
func (n *Network) buildUDPPopulation(take func() netaddr.V4) {
	u := n.cfg.UDP

	for i := 0; i < u.DNSServers; i++ {
		h := n.newHost(ClassStatic)
		h.AlwaysUp = true
		h.HomeAddr = take()
		svc := Service{
			Port:            UDPPortDNS,
			Proto:           packet.ProtoUDP,
			GenericUDPReply: i < u.DNSGenericReply,
			RatePerDay:      0,
		}
		if n.rng.Bool(u.DNSExternalFrac) {
			svc.RatePerDay = u.DNSQueriesPerDay
		}
		h.Services = append(h.Services, svc)
		n.attach(h, h.HomeAddr)
	}

	for i := 0; i < u.GameServers; i++ {
		h := n.newHost(ClassStatic)
		h.AlwaysUp = true
		h.HomeAddr = take()
		h.Services = append(h.Services, Service{
			Port:       UDPPortGame,
			Proto:      packet.ProtoUDP,
			RatePerDay: u.GamePacketsPerDay,
		})
		n.attach(h, h.HomeAddr)
	}

	// Windows hosts: NetBIOS open, silent to UDP probes on other ports,
	// traffic local-only except for the leaky few. Reuse live non-server
	// hosts; create extras if the live population is too small.
	windows := 0
	for _, h := range n.hosts {
		if windows >= u.WindowsHosts {
			break
		}
		if h.Class == ClassStatic && len(h.Services) == 0 && h.HomeAddr != 0 {
			n.markWindows(h, windows, u)
			windows++
		}
	}
	for ; windows < u.WindowsHosts && len(n.staticFreeAddrs) > 0; windows++ {
		h := n.newHost(ClassStatic)
		h.UpDay, h.UpNight = 0.85, 0.50
		h.HomeAddr = n.takeFreeStatic()
		n.markWindows(h, windows, u)
		n.attach(h, h.HomeAddr)
	}
}

func (n *Network) markWindows(h *Host, idx int, u UDPConfig) {
	// Pre-SP2 Windows answers ICMP port-unreachable on closed UDP ports;
	// the open-but-mute NetBIOS port is what lands these hosts in the
	// "possibly open" bucket of Table 7 (alive elsewhere, silent on 137).
	h.SilentUDP = false
	h.Services = append(h.Services, Service{
		Port:            UDPPortNetBIOS,
		Proto:           packet.ProtoUDP,
		GenericUDPReply: idx < u.NetBIOSGenericReply,
		// Only the designated leaky hosts ever emit NetBIOS across the
		// border (Section 4.5: "NetBIOS traffic does not typically cross
		// border routers"); answering a generic probe is independent.
		LocalOnly:  idx >= u.NetBIOSLeaks,
		RatePerDay: 2, // within-campus chatter; LocalOnly hides it from the border
	})
}

func (n *Network) takeFreeStatic() netaddr.V4 {
	last := len(n.staticFreeAddrs) - 1
	a := n.staticFreeAddrs[last]
	n.staticFreeAddrs = n.staticFreeAddrs[:last]
	return a
}

// assignServices populates a server host's TCP service set from the
// configured mix. Popular hosts always include web.
func (n *Network) assignServices(h *Host, popular bool) {
	for {
		h.Services = h.Services[:0]
		add := func(port uint16, p float64) {
			if n.rng.Bool(p) {
				h.Services = append(h.Services, n.newTCPService(port, popular))
			}
		}
		add(PortHTTP, n.cfg.PWeb)
		add(PortSSH, n.cfg.PSSH)
		add(PortFTP, n.cfg.PFTP)
		add(PortMySQL, n.cfg.PMySQL)
		add(PortHTTPS, n.cfg.PHTTPS)
		if len(h.Services) > 0 {
			break
		}
	}
	if popular && h.ServiceOn(packet.ProtoTCP, PortHTTP) == nil {
		h.Services = append(h.Services, n.newTCPService(PortHTTP, true))
	}
}

func (n *Network) newTCPService(port uint16, popular bool) Service {
	s := Service{
		Port:  port,
		Proto: packet.ProtoTCP,
	}
	if !popular {
		s.RatePerDay = n.rng.LogUniform(n.cfg.RareRateLoPerDay, n.cfg.RareRateHiPerDay)
		s.Clients = n.pickClients(1 + n.rng.Poisson(n.cfg.RareClientMean))
	}
	if port == PortMySQL {
		s.BlockExternal = n.rng.Bool(n.cfg.MySQLBlockExternal)
	}
	if port == PortHTTP || port == PortHTTPS {
		s.Content = n.pickContent()
	}
	return s
}

func (n *Network) pickClients(k int) []netaddr.V4 {
	out := make([]netaddr.V4, k)
	for i := range out {
		out[i] = n.clients[n.rng.Intn(len(n.clients))]
	}
	return out
}

func (n *Network) pickContent() ContentCategory {
	w := n.cfg.ContentWeights
	idx := n.rng.Pick([]float64{w.Custom, w.Default, w.Minimal, w.Config, w.Database, w.Restricted})
	return [...]ContentCategory{
		ContentCustom, ContentDefault, ContentMinimal,
		ContentConfig, ContentDatabase, ContentRestricted,
	}[idx]
}

func (n *Network) buildTransient() {
	// Free pools.
	for _, class := range []AddressClass{ClassDHCP, ClassWireless, ClassPPP, ClassVPN} {
		addrs := n.plan.Addresses(class)
		perm := n.rng.Perm(len(addrs))
		pool := make([]netaddr.V4, len(addrs))
		for i, j := range perm {
			pool[i] = addrs[j]
		}
		n.free[class] = pool
	}

	// DHCP residents: attached from the start with sticky leases.
	for i := 0; i < n.cfg.DHCPHosts; i++ {
		h := n.newHost(ClassDHCP)
		h.UpDay, h.UpNight = 0.85, 0.70
		if n.rng.Bool(n.cfg.DHCPServerFrac) {
			n.assignTransientServices(h, n.cfg.TransientRateLoPerDay, n.cfg.TransientRateHiPerDay)
		}
		if a, ok := n.allocAddr(ClassDHCP); ok {
			h.HomeAddr = a
			n.attach(h, a)
		}
	}

	// PPP hosts start detached; every session draws a fresh pool address.
	for i := 0; i < n.cfg.PPPHosts; i++ {
		h := n.newHost(ClassPPP)
		h.AlwaysUp = true // power state is subsumed by session presence
		if n.rng.Bool(n.cfg.PPPServerFrac) {
			n.assignTransientServices(h, n.cfg.PPPRateLoPerDay, n.cfg.PPPRateHiPerDay)
		}
	}
	// VPN endpoints are sticky: the concentrator assigns each user a fixed
	// inner address, so 35 sweeps find roughly the user population, not
	// the whole churned pool (Figure 5: ~100 VPN servers found actively).
	for i := 0; i < n.cfg.VPNHosts; i++ {
		h := n.newHost(ClassVPN)
		h.AlwaysUp = true
		if a, ok := n.allocAddr(ClassVPN); ok {
			h.HomeAddr = a
		}
		if n.rng.Bool(n.cfg.VPNServerFrac) {
			n.assignTransientServices(h, n.cfg.PPPRateLoPerDay, n.cfg.PPPRateHiPerDay)
			for j := range h.Services {
				// Clients almost never use the VPN address.
				h.Services[j].RatePerDay = n.cfg.VPNClientRatePerDay
				h.Services[j].Content = ContentDefault
			}
		}
	}
	for i := 0; i < n.cfg.WirelessHosts; i++ {
		h := n.newHost(ClassWireless)
		h.UpDay, h.UpNight = 0.7, 0.2
	}
}

// assignTransientServices gives a transient host a small personal service
// set: usually ssh or a default web server, occasionally ftp.
func (n *Network) assignTransientServices(h *Host, lo, hi float64) {
	add := func(port uint16, content ContentCategory) {
		n.addTransientService(h, port, content, lo, hi)
	}
	switch n.rng.Intn(10) {
	case 0, 1, 2, 3:
		add(PortSSH, 0)
	case 4, 5, 6:
		add(PortHTTP, ContentDefault)
	case 7:
		add(PortHTTP, ContentDefault)
		add(PortSSH, 0)
	case 8:
		add(PortFTP, 0)
		add(PortSSH, 0)
	default:
		add(PortHTTP, ContentMinimal)
	}
}

func (n *Network) addTransientService(h *Host, port uint16, content ContentCategory, lo, hi float64) {
	h.Services = append(h.Services, Service{
		Port:       port,
		Proto:      packet.ProtoTCP,
		RatePerDay: n.rng.LogUniform(lo, hi),
		Clients:    n.pickClients(1 + n.rng.Poisson(1)),
		Content:    content,
	})
}

// allocAddr pops a free address of the class.
func (n *Network) allocAddr(class AddressClass) (netaddr.V4, bool) {
	pool := n.free[class]
	if len(pool) == 0 {
		return 0, false
	}
	a := pool[len(pool)-1]
	n.free[class] = pool[:len(pool)-1]
	return a, true
}

// releaseAddr returns an address to its class pool.
func (n *Network) releaseAddr(class AddressClass, a netaddr.V4) {
	n.free[class] = append(n.free[class], a)
}

// HostAt returns the host currently holding an address.
func (n *Network) HostAt(a netaddr.V4) (*Host, bool) {
	h, ok := n.byAddr[a]
	return h, ok
}

// RespondTCP models the campus side of a SYN arriving at (dst, port) at
// time now from src. isProbe marks unsolicited scan traffic (internal
// half-open scans and external scanners), which stealth firewalls drop.
func (n *Network) RespondTCP(now time.Time, src, dst netaddr.V4, port uint16, isProbe bool) TCPResponse {
	h, ok := n.byAddr[dst]
	if !ok || !h.UpAt(now) {
		return TCPNone
	}
	svc := h.ServiceOn(packet.ProtoTCP, port)
	if svc == nil {
		return TCPRst
	}
	if svc.StealthFW && isProbe {
		return TCPNone
	}
	if svc.BlockExternal && n.External(src) {
		return TCPNone
	}
	return TCPSynAck
}

// RespondUDP models the campus side of a UDP datagram to (dst, port).
func (n *Network) RespondUDP(now time.Time, src, dst netaddr.V4, port uint16) UDPResponse {
	h, ok := n.byAddr[dst]
	if !ok || !h.UpAt(now) {
		return UDPSilent
	}
	if svc := h.ServiceOn(packet.ProtoUDP, port); svc != nil {
		if svc.GenericUDPReply {
			return UDPReply
		}
		return UDPSilent // open, but a malformed probe gets no answer
	}
	if h.SilentUDP {
		return UDPSilent
	}
	return UDPUnreachable
}

// ServiceInstance is one (address, service) pair active at a point in time,
// as enumerated for traffic generation.
type ServiceInstance struct {
	Addr netaddr.V4
	Host *Host
	Svc  *Service
}

// ActiveServices appends every attached, powered-on service instance at
// time now to dst and returns it. Traffic generation calls this once per
// simulated hour. Iteration follows host creation order, keeping RNG
// consumption downstream deterministic (map order would not).
func (n *Network) ActiveServices(now time.Time, dst []ServiceInstance) []ServiceInstance {
	for _, h := range n.hosts {
		if !h.Attached() || !h.UpAt(now) {
			continue
		}
		for i := range h.Services {
			dst = append(dst, ServiceInstance{Addr: h.attachedAddr, Host: h, Svc: &h.Services[i]})
		}
	}
	return dst
}
