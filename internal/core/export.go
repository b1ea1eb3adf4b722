package core

// Checkpoint export/import: the engine side of internal/checkpoint.
//
// ExportDelta copies out what changed since a cursor, including the
// live-only state frozen inventories do not carry (the peer sets behind
// client counts, the scan tracker's windows). The cut is a snapshot point,
// and what changed is the structural diff of the cursor's inventory and the
// new one, O(churn) because the two share every untouched tree node. The
// scan tracker is the exception: its sources are not in the store, so it
// keeps a dirty set of its own (scanTracker.ckDirty).
//
// ImportDelta is the inverse: it redistributes exported state by owner
// address into a FRESH engine — the shard count may differ from the
// exporting engine's — and re-seeds the tracker's flagged set and the
// shards' live-probe-answer tables (an imported passive record is its own
// seed: the event join reads presence from the shard's records) so a
// restored engine never re-announces what the checkpointed incarnation
// already published. Deltas carry complete per-entity state (a whole
// service record, a whole trail, a whole source's windows), so applying a
// baseline plus its delta chain in order is an upsert sequence plus
// deletions: a delta's tombstones retire the services they name, and import
// applies them before its upserts.

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/probe"
)

// EngineConfig fingerprints the engine shape a checkpoint was written
// from. A restore refuses a checkpoint whose campus or UDP port set does
// not match the target engine (the state would be silently wrong);
// Shards is informational only — restore redistributes by owner address,
// so the shard count may change across a restart.
type EngineConfig struct {
	Campus   string   `json:"campus"`
	UDPPorts []uint16 `json:"udp_ports,omitempty"`
	Shards   int      `json:"shards"`
	Hybrid   bool     `json:"hybrid,omitempty"`
}

// CheckpointCursor names the snapshot point an export was cut at; feed it to
// the next ExportDelta to receive only what changed since. It is opaque and
// meaningful only to the engine that made it: any other exports everything.
type CheckpointCursor struct {
	s   *ShardedPassive
	inv *Inventory
}

// ServiceState is one service's complete passive evidence in wire form:
// the record fields plus the full distinct-peer identity set that backs
// the client count (live-only state, absent from snapshots — without it a
// restored engine would re-count returning clients).
type ServiceState struct {
	Key        ServiceKey    `json:"key"`
	FirstSeen  time.Time     `json:"first_seen"`
	LastSeen   time.Time     `json:"last_seen,omitzero"`
	Flows      int           `json:"flows"`
	Clients    int           `json:"clients"`
	FirstPeers []PeerContact `json:"first_peers,omitempty"`
	Peers      []netaddr.V4  `json:"peers,omitempty"`
}

// TombState is one retention tombstone in wire form: the service retired
// by TTL expiry and the deadline that retired it. In a delta chain a tomb
// deletes any service imported by an earlier (or the same) delta; a
// ServiceState for the same key in the same delta re-creates it (the
// service expired and was reborn between checkpoints) — imports apply
// tombs first.
type TombState struct {
	Key ServiceKey `json:"key"`
	At  time.Time  `json:"at"`
}

// AddrTrail is one address's thinned activity-timestamp trail. An export
// hands out a copy of the engine's trail, never the trail itself.
type AddrTrail struct {
	Addr  netaddr.V4  `json:"addr"`
	Times []time.Time `json:"times"`
}

// ScanWindowState is one tumbling detection window's contact sets.
type ScanWindowState struct {
	Index   int64        `json:"index"`
	Dsts    []netaddr.V4 `json:"dsts,omitempty"`
	RstDsts []netaddr.V4 `json:"rst_dsts,omitempty"`
}

// ScanSourceState is one external source's complete tracker state. The
// peak window and the flagged bit are NOT carried: both are recomputed on
// import from the window contents (the online and offline evaluation
// rules provably agree — see scanTracker.best).
type ScanSourceState struct {
	Source  netaddr.V4        `json:"source"`
	Windows []ScanWindowState `json:"windows"`
}

// ActiveServiceState is one probe-discovered service: first and most
// recent probe answer (Last empty in checkpoints written before
// last-answer tracking; restore falls back to At).
type ActiveServiceState struct {
	Key  ServiceKey `json:"key"`
	At   time.Time  `json:"at"`
	Last time.Time  `json:"last,omitzero"`
}

// AddrOutcomes is one address's full per-sweep outcome history.
type AddrOutcomes struct {
	Addr     netaddr.V4        `json:"addr"`
	Outcomes []AddrScanOutcome `json:"outcomes"`
}

// UDPPortState is one recorded generic-UDP probe outcome.
type UDPPortState struct {
	Port  uint16         `json:"port"`
	State probe.UDPState `json:"state"`
}

// AddrUDPState is one address's generic-UDP outcomes.
type AddrUDPState struct {
	Addr  netaddr.V4     `json:"addr"`
	Ports []UDPPortState `json:"ports"`
}

// ActiveState is the active discoverer's complete state. The active side
// is small next to the passive inventory (one entry per probed address,
// not per flow), so it is exported whole whenever any report was applied
// since the cursor, and a later export replaces an earlier one wholesale.
type ActiveState struct {
	Ports     []uint16             `json:"ports,omitempty"`
	Services  []ActiveServiceState `json:"services,omitempty"`
	Tombs     []TombState          `json:"tombs,omitempty"`
	Scans     []ScanMeta           `json:"scans,omitempty"`
	Outcomes  []AddrOutcomes       `json:"outcomes,omitempty"`
	Responded []netaddr.V4         `json:"responded,omitempty"`
	UDP       []AddrUDPState       `json:"udp,omitempty"`
}

// EngineDelta is everything one export captured: entity lists sorted for
// deterministic output, the cumulative packet count, and the detection-
// window origin. Full marks a baseline (every shard exported completely).
type EngineDelta struct {
	Full      bool
	Packets   int
	Origin    time.Time
	OriginSet bool

	Services    []ServiceState
	Trails      []AddrTrail
	Tombs       []TombState
	ScanSources []ScanSourceState
	Active      *ActiveState

	// Watermark is the observation clock at the capture point (the newest
	// packet timestamp dispatched). Restoring it keeps retention deadlines
	// meaningful across a restart: a restored engine expires exactly what
	// the uninterrupted run would have.
	Watermark time.Time

	// ShardsChanged and ShardsSkipped report export effort (a skipped shard
	// owns nothing the delta carries), behind the "chunks skipped" metric.
	ShardsChanged int
	ShardsSkipped int
}

// exportState copies out, on the shard's owner in its seal's hold of the
// lock, what a frozen inventory does not hold: every live service of the
// shard that moved (every shard's list) or sd names — all when full — and
// every scan source touched since the previous export, sharing nothing with
// the engine. A full export switches the tracker's dirty set on and every
// export clears it, so after a failed write only a baseline is sound.
func (sh *passiveShard) exportState(full bool, moved []ServiceKey, sd shardDelta) (svcs []ServiceState, srcs []ScanSourceState) {
	d, t := sh.disc, sh.disc.track
	dirty := maps.Keys(t.ckDirty)
	if full {
		t.ckDirty = make(map[netaddr.V4]struct{})
		dirty, moved, sd.recs = t.sources.all(), nil, nil
		d.eachService(func(k ServiceKey, _ *PassiveRecord) { moved = append(moved, k) })
	}
	moved = slices.Clip(moved) // every shard's list: the appends must copy it
	for _, r := range sd.recs {
		moved = append(moved, r.Key)
	}
	for _, k := range moved {
		if d.owns(k.Addr) && d.service(k) != nil {
			svcs = append(svcs, d.exportService(k))
		}
	}
	for src := range dirty {
		srcs = append(srcs, t.exportSource(src))
	}
	clear(t.ckDirty)
	return svcs, srcs
}

// exportService copies one service's record and peer set into wire form.
// Nothing in the result aliases engine state: the peer history is rendered
// from its packed form, the peer set copied out — from the side table, or
// from the peer history for a service too small to have one.
func (d *PassiveDiscoverer) exportService(key ServiceKey) ServiceState {
	rec := d.service(key)
	fp := rec.FirstPeers()
	var peers []netaddr.V4
	if rec.nClients > peerInline {
		peers = d.peers[key].sorted()
	} else if len(fp) > 0 {
		peers = make([]netaddr.V4, len(fp))
		for i := range fp {
			peers[i] = fp[i].Peer
		}
		slices.Sort(peers)
	}
	return ServiceState{
		Key:        key,
		FirstSeen:  rec.FirstSeen(),
		LastSeen:   rec.LastSeen(),
		Flows:      rec.Flows,
		Clients:    rec.Clients(),
		FirstPeers: fp,
		Peers:      peers,
	}
}

// checkPeers holds st to what every exporter writes: Peers is exactly
// Clients distinct addresses, and the peer history is what a record holds —
// one contact per client up to maxFirstPeers, the first of them at FirstSeen
// (the record keeps the two as one instant), Clients in a uint32. A restore
// that took fewer peers would count returning clients again, and its
// clients= would drift from the uninterrupted run's; one that took any other
// history would hold a client count and a history that disagree.
func (st *ServiceState) checkPeers() error {
	if st.Clients < 0 || st.Clients > math.MaxUint32 {
		return fmt.Errorf("core: checkpoint service %v has %d clients", st.Key, st.Clients)
	}
	if len(st.FirstPeers) != min(st.Clients, maxFirstPeers) {
		return fmt.Errorf("core: checkpoint service %v lists %d first peers for %d clients", st.Key, len(st.FirstPeers), st.Clients)
	}
	if len(st.FirstPeers) > 0 && ToInstant(st.FirstPeers[0].Time) != ToInstant(st.FirstSeen) {
		return fmt.Errorf("core: checkpoint service %v: first peer contacted at %v, first seen %v", st.Key, st.FirstPeers[0].Time, st.FirstSeen)
	}
	if n := len(slices.Compact(slices.Sorted(slices.Values(st.Peers)))); n != st.Clients || n != len(st.Peers) {
		return fmt.Errorf("core: checkpoint service %v lists %d peers, %d distinct, for %d clients", st.Key, len(st.Peers), n, st.Clients)
	}
	return nil
}

// importService installs one service wholesale (later deltas replace
// earlier state), in the write layer.
func (d *PassiveDiscoverer) importService(st *ServiceState) {
	last := st.LastSeen
	if last.IsZero() {
		// Checkpoint written before last-seen tracking: the first
		// observation is the only one on record.
		last = st.FirstSeen
	}
	rec := &PassiveRecord{
		first:    ToInstant(st.FirstSeen),
		last:     ToInstant(last),
		Flows:    st.Flows,
		nClients: uint32(st.Clients), // checkPeers: it fits, and FirstPeers is as long as it says
	}
	for i, pc := range st.FirstPeers {
		if i == 0 {
			rec.peer0 = pc.Peer
		} else {
			rec.appendRest(i-1, peerContact{at: ToInstant(pc.Time), peer: pc.Peer})
		}
	}
	d.records.put(st.Key, rec)
	if st.Clients > peerInline {
		ps := new(addrSet)
		for _, p := range st.Peers {
			ps.add(p)
		}
		d.peers[st.Key] = ps
	}
	if d.ttl > 0 {
		d.expPush(last.Add(d.ttl), st.Key, PassiveOnly)
	}
}

// exportSource copies one source's window contents into wire form,
// windows ascending, contact sets sorted.
func (t *scanTracker) exportSource(src netaddr.V4) ScanSourceState {
	s := t.sources.find(src).words()
	st := ScanSourceState{Source: src, Windows: []ScanWindowState{}}
	for off, n := 1, 0; off < len(s); off += n {
		var ws ScanWindowState
		ws.Index, n = t.recAt(s, off)
		if w, dsts, rsts := t.members(s, off); w != nil {
			ws.Dsts, ws.RstDsts = w.dsts.sorted(), w.rsts.sorted()
		} else {
			ws.Dsts, ws.RstDsts = sortedWords(dsts), sortedWords(rsts)
		}
		st.Windows = append(st.Windows, ws)
	}
	sort.Slice(st.Windows, func(i, j int) bool { return st.Windows[i].Index < st.Windows[j].Index })
	return st
}

// sortedWords renders a packed contact set ascending (nil when empty).
func sortedWords(ws []uint32) []netaddr.V4 {
	var out []netaddr.V4
	for _, a := range ws {
		out = append(out, netaddr.V4(a))
	}
	slices.Sort(out)
	return out
}

// truncate drops src's records from word off on — all of them at 1, leaving
// it listed with no windows — and releases the bigWindows they referred to.
func (t *scanTracker) truncate(src netaddr.V4, off int) {
	sl := t.sources.slot(src)
	s := sl.words()
	for o, n := off, 0; o < len(s); o += n {
		_, n = t.recAt(s, o)
		if w, _, _ := t.members(s, o); w != nil {
			*w = bigWindow{}
		}
	}
	s = growWords(s[:min(off, len(s))], max(1-len(s), 0)) // a new source gets word 0
	s[0] = 1
	sl.set(s)
}

// importSource installs one source wholesale, replaying each listed window
// through the ingest path's add, and recomputes its peak window and flagged
// bit offline. The offline rule — best (dsts, then rstDsts), earliest
// window on full ties — agrees with the online rule in record because
// counts within one window only grow, so the restored tracker's detect()
// output is identical to the uninterrupted run's, and a restored-then-
// resumed run flags each source at most once across incarnations. A window
// index listed twice — no exporter writes that — keeps its last listing.
func (t *scanTracker) importSource(ss *ScanSourceState) {
	listed := append([]ScanWindowState(nil), ss.Windows...)
	sort.Slice(listed, func(i, j int) bool { return listed[i].Index < listed[j].Index })
	src := ss.Source
	t.truncate(src, 1)
	delete(t.best, src)
	last := 0 // the offset of the record just built
	for i, ws := range listed {
		if i > 0 && listed[i-1].Index == ws.Index {
			t.truncate(src, last)
		}
		_, last = t.window(src, ws.Index)
		var nd, nr int
		for _, a := range ws.Dsts {
			nd, nr = t.add(src, ws.Index, a, false)
		}
		for _, a := range ws.RstDsts {
			nd, nr = t.add(src, ws.Index, a, true)
		}
		if nd < ScanDetectMinDsts || nr < ScanDetectMinRsts {
			continue
		}
		t.flagged[src] = true
		cur, ok := t.best[src]
		if ok && (nd < cur.UniqueDsts || (nd == cur.UniqueDsts && nr <= cur.RstDsts)) {
			continue
		}
		t.best[src] = ScannerInfo{
			Source:     src,
			Window:     t.origin.Add(time.Duration(ws.Index) * ScanDetectWindow),
			UniqueDsts: nd,
			RstDsts:    nr,
		}
	}
	t.detGen++
}

// CheckpointConfig reports the engine's shape for manifest validation.
func (s *ShardedPassive) CheckpointConfig() EngineConfig {
	ports := make([]uint16, 0, len(s.shards[0].disc.udpPorts))
	for p := range s.shards[0].disc.udpPorts {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return EngineConfig{Campus: s.campus.String(), UDPPorts: ports, Shards: len(s.shards), Hybrid: s.active != nil}
}

// ExportDelta captures the engine's state changed since cur (all of it when
// cur is nil — a baseline). It is a snapshot: it advances the chain exactly
// as Snapshot does, retiring what is due at its boundary, and copies each
// shard's live state out at that freeze's boundary, so it is safe at any
// lifecycle stage and concurrent with ingest.
// With nothing dispatched and no report applied since cur it touches no
// shard. Under a Hybrid the active side rides along whole whenever the new
// inventory's active view is not the cursor's. Feed the returned cursor to
// the next call.
func (s *ShardedPassive) ExportDelta(cur *CheckpointCursor) (*EngineDelta, CheckpointCursor) {
	full := cur == nil || cur.s != s
	if !full && s.snap.fast(s.dispatched.Load()) == cur.inv {
		return &EngineDelta{Packets: cur.inv.Packets(), ShardsSkipped: len(s.shards)}, *cur
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	old := &mergedStore{} // a baseline diffs against nothing
	var moved []ServiceKey
	if !full {
		old = cur.inv.d
		// Services moved up to the chain's newest inventory (a write after a
		// seal clones the record); each shard's seal names the rest.
		if prev, _ := s.snap.peek(); prev != nil {
			prev.d.services.Diff(old.services, func(a, b *PassiveRecord) bool { return a == b },
				func(k ServiceKey) { moved = append(moved, k) })
		}
	}
	ed := &EngineDelta{Full: full}
	svcs, srcs := make([][]ServiceState, len(s.shards)), make([][]ScanSourceState, len(s.shards))
	inv := s.snapshot(&freezeHook{
		// The dispatcher's copy of the origin: a shard's is written by the
		// dispatcher too, and a worker reading it could race the seed.
		pin:   func() { ed.Watermark, ed.Origin, ed.OriginSet = s.watermark, s.origin, s.originSeeded },
		shard: func(i int, sh *passiveShard, sd shardDelta) { svcs[i], srcs[i] = sh.exportState(full, moved, sd) },
	})
	// Trails and tombstones are frozen whole in inv, so they come off the
	// diff directly, in key order. Trails only append: a moved one is a
	// longer one.
	touched := make([]bool, len(s.shards))
	inv.d.trails.Diff(old.trails, func(a, b []Instant) bool { return len(a) == len(b) }, func(a netaddr.V4) {
		ed.Trails = append(ed.Trails, AddrTrail{Addr: a, Times: toTimes(inv.d.trail(a))})
		touched[s.shardOf(a)] = true
	})
	inv.d.tombs.Diff(old.tombs, time.Time.Equal, func(k ServiceKey) {
		at, _ := inv.d.tombs.Get(k)
		ed.Tombs = append(ed.Tombs, TombState{Key: k, At: at})
		touched[s.shardOf(k.Addr)] = true
	})
	for i := range s.shards {
		if len(svcs[i])+len(srcs[i]) == 0 && !touched[i] {
			ed.ShardsSkipped++
			continue
		}
		ed.ShardsChanged++
		ed.Services = append(ed.Services, svcs[i]...)
		ed.ScanSources = append(ed.ScanSources, srcs[i]...)
	}
	ed.Packets = inv.Packets()
	// A service moved on both sides of the chain's newest inventory is named twice.
	slices.SortFunc(ed.Services, func(a, b ServiceState) int { return a.Key.Compare(b.Key) })
	ed.Services = slices.CompactFunc(ed.Services, func(a, b ServiceState) bool { return a.Key == b.Key })
	sort.Slice(ed.ScanSources, func(i, j int) bool { return ed.ScanSources[i].Source < ed.ScanSources[j].Source })
	// A Hybrid whose active side never took a report or a restore has none
	// to export.
	if a := inv.active; a != nil && (full || a != cur.inv.active) && !a.blank() {
		ed.Active = exportActiveState(a)
	}
	return ed, CheckpointCursor{s: s, inv: inv}
}

// checkFresh rejects import into an engine that has run or ingested:
// restore must rebuild state from zero, in chunk order, before any
// traffic — anything else could not be proven equivalent.
func (s *ShardedPassive) checkFresh() error {
	s.mu.RLock()
	running, closed := s.running, s.closed
	s.mu.RUnlock()
	if running || closed {
		return fmt.Errorf("core: checkpoint import requires a fresh engine (already running or closed)")
	}
	if s.dispatched.Load() != 0 || s.counters.In() != 0 {
		return fmt.Errorf("core: checkpoint import requires a fresh engine (packets or reports already ingested)")
	}
	return nil
}

// ImportDelta applies one exported delta to a fresh engine, before Run
// and before any ingest; apply a baseline and its deltas in chain order.
// State is redistributed by owner address, so the shard count may differ
// from the exporting engine's. Active-scan state needs a Hybrid to land in.
// A delta listing any service's peers as other than Clients distinct
// addresses, or a peer history a record cannot hold (see checkPeers), is
// refused whole. Single-goroutine, like pre-Run ingest.
func (s *ShardedPassive) ImportDelta(ed *EngineDelta) error {
	if err := s.checkFresh(); err != nil {
		return err
	}
	if ed.Active != nil && s.active == nil {
		return fmt.Errorf("core: delta carries active-scan state; import it into a Hybrid engine")
	}
	for i := range ed.Services {
		if err := ed.Services[i].checkPeers(); err != nil {
			return err
		}
	}
	s.importPassive(ed)
	if ed.Active != nil {
		s.importActiveState(ed.Active)
	}
	return nil
}

func (s *ShardedPassive) importPassive(ed *EngineDelta) {
	// Import writes every shard's services: hold the shard locks, as every
	// such write does (see passiveShard.mu).
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if ed.OriginSet && !s.originSeeded {
		s.seedOrigins(ed.Origin)
	}
	// Tombs before service upserts: a delta carrying both a tomb and a
	// record for one key means the service expired and was then reborn —
	// the tomb retires the earlier incarnation, the upsert re-creates it.
	for i := range ed.Tombs {
		tb := &ed.Tombs[i]
		d := s.owner(tb.Key).disc
		d.records.put(tb.Key, nil)
		delete(d.peers, tb.Key)
		if cur, ok := d.tombstones.get(tb.Key); !ok || tb.At.After(cur) {
			d.tombstones.put(tb.Key, tb.At)
		}
	}
	if ed.Watermark.After(s.watermark) {
		s.watermark = ed.Watermark
		s.clock.Store(uint64(ToInstant(s.watermark)))
	}
	for i := range ed.Services {
		st := &ed.Services[i]
		s.owner(st.Key).disc.importService(st)
	}
	for i := range ed.Trails {
		tr := &ed.Trails[i]
		s.shards[s.shardOf(tr.Addr)].disc.trails.put(tr.Addr, toInstants(tr.Times))
	}
	for i := range ed.ScanSources {
		ss := &ed.ScanSources[i]
		s.shards[s.shardOf(ss.Source)].disc.track.importSource(ss)
	}
	// The cumulative packet count is attributed to shard 0 wholesale:
	// per-shard attribution is unobservable (every merge sums), and the
	// importing engine's shardOf may differ from the exporter's anyway.
	for i, sh := range s.shards {
		if i == 0 {
			sh.disc.Packets = ed.Packets
		} else {
			sh.disc.Packets = 0
		}
	}
	// The import wrote the shards' write layers outside any seal interval:
	// the next snapshot must merge the shards whole, not patch what it had.
	s.snap.invalidate()
}

// exportActiveState copies a frozen active view into wire form, every
// list in key order as the view's trees hold it. Slices alias the view's
// storage, which never changes (outcome histories are copied by their
// next write, Open lists are write-once), so the copy is O(entries), not
// O(bytes).
func exportActiveState(d *ActiveDiscoverer) *ActiveState {
	as := &ActiveState{
		Ports:     append([]uint16(nil), d.ports...),
		Scans:     append([]ScanMeta(nil), d.scans...),
		Responded: d.respondedEver.Sorted(),
	}
	d.probes.base.Walk(nil, func(k ServiceKey, p probeTimes) bool {
		as.Services = append(as.Services, ActiveServiceState{Key: k, At: p.first.Time(), Last: p.last.Time()})
		return true
	})
	d.tombs.base.Walk(nil, func(k ServiceKey, at time.Time) bool {
		as.Tombs = append(as.Tombs, TombState{Key: k, At: at})
		return true
	})
	d.perAddr.base.Walk(nil, func(a netaddr.V4, outs []AddrScanOutcome) bool {
		as.Outcomes = append(as.Outcomes, AddrOutcomes{Addr: a, Outcomes: outs[:len(outs):len(outs)]})
		return true
	})
	d.udp.base.Walk(nil, func(a netaddr.V4, ports []UDPPortState) bool {
		as.UDP = append(as.UDP, AddrUDPState{Addr: a, Ports: ports[:len(ports):len(ports)]})
		return true
	})
	return as
}

// importActiveState replaces the active side wholesale (each export
// carries the complete state), the shards' live-probe-answer tables with it.
// The lists land in the write layers: a key listed twice keeps its last
// listing, and a UDP port listed twice its most definitive outcome.
func (s *ShardedPassive) importActiveState(as *ActiveState) {
	s.amu.Lock()
	defer s.amu.Unlock()
	s.active.probes.each(answered, func(k ServiceKey, _ probeTimes) { s.owner(k).activeWithdrawn(k) })
	a := NewActiveDiscoverer(as.Ports)
	a.onAnswer, a.ttl = s.active.onAnswer, s.active.ttl
	a.scans = append([]ScanMeta(nil), as.Scans...)
	for _, svc := range as.Services {
		last := svc.Last
		if last.IsZero() {
			last = svc.At
		}
		a.probes.put(svc.Key, probeTimes{first: ToInstant(svc.At), last: ToInstant(last), ok: true})
		s.owner(svc.Key).seedActive(svc.Key, svc.At, last)
	}
	for _, tb := range as.Tombs {
		a.tombs.put(tb.Key, tb.At)
	}
	for _, ao := range as.Outcomes {
		a.perAddr.put(ao.Addr, append([]AddrScanOutcome(nil), ao.Outcomes...))
	}
	a.respondedEver = netaddr.NewSet(as.Responded...)
	for _, au := range as.UDP {
		var ports []UDPPortState
		for _, ps := range au.Ports {
			ports = mergeUDP(ports, ps.Port, ps.State)
		}
		a.udp.put(au.Addr, ports)
	}
	s.active = a
	s.seenReports.Store(true)
}
