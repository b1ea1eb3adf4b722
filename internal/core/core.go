// Package core implements the paper's primary contribution: passive and
// active service discovery and the analysis that compares them.
//
// The passive side (PassiveDiscoverer) consumes border packets from a
// capture tap and accumulates evidence: a campus host sourcing a SYN-ACK is
// running a TCP service; a campus host sourcing UDP from a well-known port
// is running a UDP service (Section 3.2). It simultaneously tracks external
// sources well enough to detect address-space scans by the paper's rule —
// 100+ unique destinations with 100+ RST responses within a 12-hour window
// (Section 4.3) — and to recompute discovery as if scan traffic were absent.
//
// The active side (ActiveDiscoverer) consumes probe sweep reports and keeps
// the full per-address, per-scan outcome matrix, enabling the firewall
// confirmation heuristics of Section 4.2.4 and the time-of-day analyses of
// Section 5.1.
//
// Readers of either side get a frozen Inventory. Analysis (analysis.go)
// reads both sides of one into the tables and figures of the evaluation:
// completeness matrices, weighted and unweighted discovery curves, and the
// address categorizations of Tables 3 and 4.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"
	"unsafe"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// ServiceKey identifies one discoverable service: an address, transport
// protocol, and port. It serializes with the address and protocol as
// strings (see netaddr.V4.MarshalText, packet.IPProtocol.MarshalText), the
// form event feeds and the federation wire carry.
type ServiceKey struct {
	Addr  netaddr.V4        `json:"addr"`
	Proto packet.IPProtocol `json:"proto"`
	Port  uint16            `json:"port"`
}

// String renders "addr:port/proto".
func (k ServiceKey) String() string {
	return fmt.Sprintf("%s:%d/%s", k.Addr, k.Port, k.Proto)
}

// Ord is the key as one integer, addr<<24|proto<<16|port: injective, and
// ordered exactly as the canonical (addr, proto, port) ordering — what every
// key sort and tree search compares.
func (k ServiceKey) Ord() uint64 {
	return uint64(k.Addr)<<24 | uint64(k.Proto)<<16 | uint64(k.Port)
}

// Compare orders k against other in the canonical (addr, proto, port)
// ordering — the one ordering behind every deterministic key listing and
// dump, from Inventory.Keys to the federation aggregator: -1, 0 or +1.
func (k ServiceKey) Compare(other ServiceKey) int { return cmp.Compare(k.Ord(), other.Ord()) }

// Before reports whether k orders before other (Compare < 0).
func (k ServiceKey) Before(other ServiceKey) bool { return k.Ord() < other.Ord() }

// SortKeys sorts keys into the canonical ordering.
func SortKeys(keys []ServiceKey) { slices.SortFunc(keys, ServiceKey.Compare) }

// PeerContact is the first contact from one distinct peer to a service.
// The JSON tags define the checkpoint wire form (see export.go).
type PeerContact struct {
	Peer netaddr.V4 `json:"peer"`
	Time time.Time  `json:"time"`
}

// peerContact is PeerContact as records hold it: 16 bytes, no pointers.
type peerContact struct {
	at   Instant
	peer netaddr.V4
}

// PassiveRecord accumulates everything passive monitoring learns about one
// service, in 40 bytes and no pointer but one, so that it is held by value
// wherever it is held: in a shard's write layer, a seal delta and, beside
// its 8-byte key, a leaf entry of the merged store (mergedStore). Its peer
// history — the first contact from each of the
// first maxFirstPeers distinct peers, enough to recompute first-discovery
// with any subset of peers (e.g. scanners) removed — is nFirst() long and
// sits in two places: the first peer inline (peer0, contacted at first: the
// engine makes every record on its first peer's evidence), the rest behind
// one pointer. The history doubles as the peer-identity set behind nClients
// while the service is small; a larger one's set lives in the owning
// discoverer's live-only side table (PassiveDiscoverer.peers), never in the
// record.
//
// The rest array is append-only and carries no length of its own: each
// record derives it from its own nClients. A copy shares the array with the
// record it was copied from, and the live record appends past the copy's
// length — in place while the array has room — so a sealed copy never sees
// an element its client count does not cover, and never sees one change.
//
// A record with negative Flows (noRecord) stands for no record at all: no
// record the engine builds or imports holds one (ImportDelta refuses
// negative flows).
type PassiveRecord struct {
	// first is when the first positive evidence arrived; last when the most
	// recent did — the timestamp retention deadlines are computed from
	// (last + TTL).
	first, last Instant
	// Flows counts completed connection evidence (SYN-ACKs for TCP,
	// server-sourced datagrams for UDP) — the flow weight of Figure 1.
	Flows int
	// nClients counts distinct peer addresses — the client weight.
	nClients uint32
	// peer0 is the first peer when nClients > 0.
	peer0 netaddr.V4
	// rest holds peers 2 … nFirst() in an array whose capacity is the
	// power of two at or above that length (appendRest).
	rest *peerContact
}

// A field that grows either type fails the build here, not a memory
// benchmark later. (A record and its key fill a 48-byte leaf entry.)
const (
	_ = uint(40-unsafe.Sizeof(PassiveRecord{})) + uint(unsafe.Sizeof(PassiveRecord{})-40) // == 40
	_ = uint(16-unsafe.Sizeof(peerContact{})) + uint(unsafe.Sizeof(peerContact{})-16)     // == 16
)

// noRecord is what a store holds for a key with no passive record: in a
// shard's write layer, a retire marker hiding an older incarnation below
// it; in the merged store, under a Hybrid, a service only a probe found.
var noRecord = PassiveRecord{Flows: -1}

// held reports whether r is a record rather than noRecord.
func (r *PassiveRecord) held() bool { return r.Flows >= 0 }

// maxFirstPeers bounds per-service peer history. The scan-removal analysis
// only needs the first non-scanner peer; there are at most a few dozen
// scanner sources in any dataset, so 128 distinct peers always include a
// non-scanner if one ever contacted the service.
const maxFirstPeers = 128

// FirstSeen returns when the first positive evidence arrived.
func (r *PassiveRecord) FirstSeen() time.Time { return r.first.Time() }

// LastSeen returns when the most recent positive evidence arrived.
func (r *PassiveRecord) LastSeen() time.Time { return r.last.Time() }

// Clients returns the number of distinct peers observed.
func (r *PassiveRecord) Clients() int { return int(r.nClients) }

// nFirst is the peer history's length: one entry per client, up to
// maxFirstPeers.
func (r *PassiveRecord) nFirst() int { return int(min(r.nClients, maxFirstPeers)) }

// restPeers is the peer history past peer0.
func (r *PassiveRecord) restPeers() []peerContact {
	return unsafe.Slice(r.rest, max(r.nFirst()-1, 0))
}

// appendRest stores pc past the n entries the rest array holds. The array is
// full when n is zero or a power of two; a full one is copied into a new one
// twice as long (one entry long at first).
func (r *PassiveRecord) appendRest(n int, pc peerContact) {
	if n&(n-1) == 0 {
		grown := make([]peerContact, max(2*n, 1))
		copy(grown, unsafe.Slice(r.rest, n))
		r.rest = &grown[0]
	}
	unsafe.Slice(r.rest, n+1)[n] = pc
}

// FirstPeers returns a copy of the bounded peer history, oldest first.
func (r *PassiveRecord) FirstPeers() []PeerContact {
	if r.nClients == 0 {
		return nil
	}
	out := make([]PeerContact, 1, r.nFirst())
	out[0] = PeerContact{Peer: r.peer0, Time: r.first.Time()}
	for _, pc := range r.restPeers() {
		out = append(out, PeerContact{Peer: pc.peer, Time: pc.at.Time()})
	}
	return out
}

// FirstSeenExcluding returns the earliest contact from a peer not in the
// excluded set, and ok=false if every stored peer is excluded.
func (r *PassiveRecord) FirstSeenExcluding(excluded map[netaddr.V4]bool) (time.Time, bool) {
	if r.nClients > 0 && !excluded[r.peer0] {
		return r.first.Time(), true
	}
	for _, pc := range r.restPeers() {
		if !excluded[pc.peer] {
			return pc.at.Time(), true
		}
	}
	return time.Time{}, false
}

// observe folds one piece of evidence into the record. newPeer reports
// whether the discoverer's peer-identity side table saw this peer for the
// first time (the dedup the record itself no longer carries).
func (r *PassiveRecord) observe(at Instant, peer netaddr.V4, newPeer bool) {
	r.Flows++
	if at > r.last {
		r.last = at
	}
	if newPeer {
		// The history's length comes from nClients: read it before the count moves.
		switch n := r.nFirst(); {
		case n == 0:
			r.peer0 = peer // contacted at r.first, the evidence the record was made on
		case n < maxFirstPeers:
			r.appendRest(n-1, peerContact{at: at, peer: peer})
		}
		r.nClients++
	}
}
