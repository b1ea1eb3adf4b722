package query

import (
	"maps"
	"math"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"servdisc/internal/core"
	"servdisc/internal/packet"
)

// Doc is one service as the query layer sees it: the key, its provenance
// class, discovery and freshness times, and the passive weights. Docs are
// plain values handed out by value, so callers never touch engine state.
type Doc struct {
	Key   core.ServiceKey `json:"key"`
	Prov  core.Provenance `json:"prov"`
	First time.Time       `json:"first_seen"`
	// Last is the newest positive evidence — the freshness axis. For
	// active-only services (no passive record) it is the first probe
	// answer, the only per-key time the active side retains.
	Last    time.Time `json:"last_seen"`
	Flows   int       `json:"flows,omitempty"`
	Clients int       `json:"clients,omitempty"`
}

// packedDoc is a Doc as the aggregator's doc tree stores it, beside its key:
// 32 pointer-free bytes instead of 80 with two *Location for the collector
// to scan. Times are Unix nanoseconds plus a presence flag (absent =
// time.Time{}, stored as 0, so packed docs compare with ==), clamped to the
// int64-nanosecond range. Flows stays 64-bit; clients saturates at 2^32-1,
// which distinct IPv4 peers cannot exceed.
type packedDoc struct {
	first, last       int64
	flows             int
	clients           uint32
	prov              core.Provenance
	hasFirst, hasLast bool
}

const _ = uint(32 - unsafe.Sizeof(packedDoc{})) // <= 32

// keyTree is a posting list: the keys filed under one bucket of a
// dimension.
type keyTree = core.Tree[core.ServiceKey, struct{}]

var minPackedTime, maxPackedTime = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// packTime renders t as Unix nanoseconds, clamped to 1678–2262 (UnixNano
// is undefined beyond); ok is false, and ns 0, for the zero time.
func packTime(t time.Time) (ns int64, ok bool) {
	switch {
	case t.IsZero():
		return 0, false
	case t.Before(minPackedTime):
		return math.MinInt64, true
	case t.After(maxPackedTime):
		return math.MaxInt64, true
	}
	return t.UnixNano(), true
}

func unpackTime(ns int64, ok bool) time.Time {
	if !ok {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// pack stores d's fields but its key in tree form (Rebuild and Patch, on
// the way in).
func pack(d Doc) packedDoc {
	p := packedDoc{
		flows:   d.Flows,
		clients: uint32(min(uint64(max(d.Clients, 0)), math.MaxUint32)),
		prov:    d.Prov,
	}
	p.first, p.hasFirst = packTime(d.First)
	p.last, p.hasLast = packTime(d.Last)
	return p
}

// doc renders p, stored under k, as the API type (Epoch.Doc, on the way
// out); times come back in UTC.
func (p packedDoc) doc(k core.ServiceKey) Doc {
	return Doc{
		Key:     k,
		Prov:    p.prov,
		First:   unpackTime(p.first, p.hasFirst),
		Last:    unpackTime(p.last, p.hasLast),
		Flows:   p.flows,
		Clients: int(p.clients),
	}
}

// DocFromInventory builds the query doc for one inventory key from one
// descent of its record store; ok is false if the key is not there.
func DocFromInventory(inv *core.Inventory, k core.ServiceKey) (Doc, bool) {
	rec, prov, first, activeAt, ok := inv.Service(k)
	if !ok {
		return Doc{}, false
	}
	return docOf(k, rec, prov, first, activeAt), true
}

// docOf builds the query doc from what Inventory.Service (or EachService)
// reports about one key, with times in UTC.
func docOf(k core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, first, activeAt time.Time) Doc {
	d := Doc{Key: k, Prov: prov, First: first.UTC()}
	if rec != nil {
		d.Last = rec.LastSeen()
		d.Flows = rec.Flows
		d.Clients = rec.Clients()
	} else {
		d.Last = activeAt.UTC() // a probe-only service was last heard from when it answered
	}
	return d
}

// Category buckets services by application class, derived from the
// well-known port (the paper's service axis: its datasets select FTP,
// SSH, HTTP, HTTPS and MySQL, plus the UDP services passive monitoring
// watches).
type Category uint8

// Category classes. CatAny is the query wildcard, never stored.
const (
	CatAny Category = iota
	CatWeb
	CatSSH
	CatFTP
	CatMail
	CatDNS
	CatDB
	CatNameSvc
	CatOther
)

var categoryNames = [...]string{
	CatAny:     "any",
	CatWeb:     "web",
	CatSSH:     "ssh",
	CatFTP:     "ftp",
	CatMail:    "mail",
	CatDNS:     "dns",
	CatDB:      "db",
	CatNameSvc: "namesvc",
	CatOther:   "other",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "other"
}

// ParseCategory parses the names String renders; unknown names are CatAny
// with ok=false.
func ParseCategory(s string) (Category, bool) {
	for i, name := range categoryNames {
		if s == name {
			return Category(i), true
		}
	}
	return CatAny, false
}

// CategoryOf classifies a service key.
func CategoryOf(k core.ServiceKey) Category {
	switch k.Port {
	case 80, 443, 8080, 8443:
		return CatWeb
	case 22:
		return CatSSH
	case 20, 21:
		return CatFTP
	case 25, 110, 143, 465, 587, 993, 995:
		return CatMail
	case 53:
		return CatDNS
	case 3306, 5432, 1433, 6379, 11211, 27017:
		return CatDB
	case 111, 137, 138, 139, 389, 445:
		return CatNameSvc
	}
	if k.Proto == packet.ProtoUDP && (k.Port == 5353 || k.Port == 1900) {
		return CatNameSvc
	}
	return CatOther
}

// DefaultFreshnessBucket is the width of the freshness-dimension buckets
// when the catalog is built with no explicit width.
const DefaultFreshnessBucket = time.Hour

// Epoch is one immutable index generation: where its docs live plus the
// four secondary dimensions, each a bucket map of persistent key trees
// sharing state with the previous epoch. Readers navigate an epoch
// lock-free; it never changes after publication.
//
// An engine epoch (RebuildFromInventory, ApplyDelta) holds no doc of its
// own: it pins the frozen inventory it indexes and resolves every key
// through it, so a service's weights and times live once, in the record
// store. An aggregator epoch (Rebuild, Patch) has no inventory to read and
// keeps its docs in a packed doc tree. There is no prefix dimension: keys
// sort address-major, so any prefix is one contiguous run of either key
// order.
type Epoch struct {
	gen        uint64
	freshWidth time.Duration
	inv        *core.Inventory                       // engine epochs; nil in doc-tree epochs
	docs       core.Tree[core.ServiceKey, packedDoc] // doc-tree epochs; empty in engine epochs
	byPort     map[uint16]keyTree
	byProv     map[core.Provenance]keyTree
	byCat      map[Category]keyTree
	byFresh    map[int64]keyTree // freshBucket(Last) → keys
	freshBases []int64           // sorted bucket ids
}

// Gen returns the epoch's generation counter (0 = empty initial epoch).
func (e *Epoch) Gen() uint64 { return e.gen }

// Len returns the number of indexed services.
func (e *Epoch) Len() int {
	if e.inv != nil {
		return e.inv.Len()
	}
	return e.docs.Len()
}

// Doc returns the indexed doc for one key.
func (e *Epoch) Doc(k core.ServiceKey) (Doc, bool) {
	if e.inv != nil {
		return DocFromInventory(e.inv, k)
	}
	p, ok := e.docs.Get(k)
	return p.doc(k), ok
}

// keysAfter visits the indexed keys above after (every key when after is
// nil) in canonical order until f returns false.
func (e *Epoch) keysAfter(after *core.ServiceKey, f func(core.ServiceKey) bool) {
	if e.inv != nil {
		e.inv.EachServiceAfter(after, func(k core.ServiceKey, _ *core.PassiveRecord, _ core.Provenance, _, _ time.Time) bool {
			return f(k)
		})
		return
	}
	e.docs.Walk(after, func(k core.ServiceKey, _ packedDoc) bool { return f(k) })
}

// freshBucket is the freshness bucket of a packed time (see packTime): ns
// floored to a multiple of freshWidth, and for "no last evidence" a bucket
// of its own below every other.
func (e *Epoch) freshBucket(ns int64, ok bool) int64 {
	if !ok {
		return math.MinInt64
	}
	w := int64(e.freshWidth)
	b := ns / w
	if ns < 0 && ns%w != 0 {
		b--
	}
	return b
}

// Catalog owns the epoch chain: each update installs a new epoch
// (caller-serialized — in the engine they run under the snapshot lock),
// while any number of concurrent readers load the current epoch through
// one atomic pointer. A catalog is fed either an engine's inventories
// (RebuildFromInventory, ApplyDelta) or docs (Rebuild, Patch), not both.
type Catalog struct {
	cur        atomic.Pointer[Epoch]
	freshWidth time.Duration
}

// NewCatalog builds an empty catalog. freshWidth sets the freshness
// bucket granularity (DefaultFreshnessBucket when <= 0).
func NewCatalog(freshWidth time.Duration) *Catalog {
	if freshWidth <= 0 {
		freshWidth = DefaultFreshnessBucket
	}
	c := &Catalog{freshWidth: freshWidth}
	c.cur.Store(c.emptyEpoch(0))
	return c
}

func (c *Catalog) emptyEpoch(gen uint64) *Epoch {
	return &Epoch{gen: gen, freshWidth: c.freshWidth}
}

// Epoch returns the current index epoch — an immutable value, safe to
// read for as long as the caller likes regardless of later patches.
func (c *Catalog) Epoch() *Epoch { return c.cur.Load() }

// Len returns the current epoch's service count.
func (c *Catalog) Len() int { return c.Epoch().Len() }

// dimDelta accumulates one dimension's bucket-level key edits. They are
// sorted at apply time: a bucket's deletions interleave keys from the upsert
// loop (bucket migrations) and the remove loop, so append order is not
// globally sorted.
type dimDelta[B comparable] struct {
	edits map[B][]core.TreeEdit[core.ServiceKey, struct{}]
}

func (d *dimDelta[B]) add(b B, k core.ServiceKey) { d.edit(b, k, false) }

func (d *dimDelta[B]) del(b B, k core.ServiceKey) { d.edit(b, k, true) }

func (d *dimDelta[B]) edit(b B, k core.ServiceKey, del bool) {
	if d.edits == nil {
		d.edits = map[B][]core.TreeEdit[core.ServiceKey, struct{}]{}
	}
	d.edits[b] = append(d.edits[b], core.TreeEdit[core.ServiceKey, struct{}]{Key: k, Del: del})
}

// apply patches one dimension's bucket map, cloning it only when at least
// one bucket changed. Returns the (possibly shared) new map and whether
// the set of buckets changed.
func (d *dimDelta[B]) apply(prev map[B]keyTree) (map[B]keyTree, bool) {
	if d.edits == nil {
		return prev, false
	}
	next := make(map[B]keyTree, len(prev)+len(d.edits))
	maps.Copy(next, prev)
	basesChanged := false
	for b, edits := range d.edits {
		slices.SortFunc(edits, func(x, y core.TreeEdit[core.ServiceKey, struct{}]) int { return x.Key.Compare(y.Key) })
		before, existed := next[b]
		after := before.Patch(edits, nil)
		if after.Len() == 0 {
			if existed {
				delete(next, b)
				basesChanged = true
			}
			continue
		}
		basesChanged = basesChanged || !existed
		next[b] = after
	}
	return next, basesChanged
}

// postings accumulates one epoch transition's moves in every secondary
// dimension.
type postings struct {
	port  dimDelta[uint16]
	prov  dimDelta[core.Provenance]
	cat   dimDelta[Category]
	fresh dimDelta[int64]
}

// upsert files the moves that take a key from old (absent unless had) to
// d, with freshness buckets as e draws them.
func (ps *postings) upsert(e *Epoch, old Doc, had bool, d Doc) {
	k, nb := d.Key, e.freshBucket(packTime(d.Last))
	if !had {
		ps.port.add(k.Port, k)
		ps.cat.add(CategoryOf(k), k)
		ps.prov.add(d.Prov, k)
		ps.fresh.add(nb, k)
		return
	}
	// Key-derived dimensions (port, category) cannot move; provenance and
	// freshness can.
	if old.Prov != d.Prov {
		ps.prov.del(old.Prov, k)
		ps.prov.add(d.Prov, k)
	}
	if ob := e.freshBucket(packTime(old.Last)); ob != nb {
		ps.fresh.del(ob, k)
		ps.fresh.add(nb, k)
	}
}

// remove files the moves that drop old's key from every dimension.
func (ps *postings) remove(e *Epoch, old Doc) {
	k := old.Key
	ps.port.del(k.Port, k)
	ps.cat.del(CategoryOf(k), k)
	ps.prov.del(old.Prov, k)
	ps.fresh.del(e.freshBucket(packTime(old.Last)), k)
}

// advance installs the successor of prev: its postings patched by ps, its
// docs resolved through inv or, when inv is nil, held in docs.
func (c *Catalog) advance(prev *Epoch, ps *postings, inv *core.Inventory, docs core.Tree[core.ServiceKey, packedDoc]) {
	next := &Epoch{
		gen:        prev.gen + 1,
		freshWidth: prev.freshWidth,
		inv:        inv,
		docs:       docs,
		freshBases: prev.freshBases,
	}
	var freshMoved bool
	next.byPort, _ = ps.port.apply(prev.byPort)
	next.byProv, _ = ps.prov.apply(prev.byProv)
	next.byCat, _ = ps.cat.apply(prev.byCat)
	next.byFresh, freshMoved = ps.fresh.apply(prev.byFresh)
	if freshMoved {
		next.freshBases = sortedBases(next.byFresh)
	}
	c.cur.Store(next)
}

// Patch advances a doc-fed catalog one epoch: upserts (sorted by key,
// duplicate-free) replace or insert docs, removes (sorted, disjoint from
// upserts) delete them. Cost is O(changes · log n) — the persistent trees
// path-copy only what moved, and the dimension maps are cloned at bucket
// granularity. No-op patches (every upsert equal to the stored doc) keep
// the current epoch.
func (c *Catalog) Patch(upserts []Doc, removes []core.ServiceKey) {
	c.patch(c.Epoch(), upserts, removes)
}

// Rebuild replaces the whole index from a doc list sorted by key — the
// aggregator's full resync: a patch of an empty epoch, whose trees are
// packed bottom-up from the sorted lists in O(n).
func (c *Catalog) Rebuild(docs []Doc) {
	c.patch(c.emptyEpoch(c.Epoch().gen), docs, nil)
}

// patch installs prev's successor with the docs changed; it keeps the
// current epoch only when that is prev and nothing changed.
func (c *Catalog) patch(prev *Epoch, upserts []Doc, removes []core.ServiceKey) {
	var ps postings
	edits := make([]core.TreeEdit[core.ServiceKey, packedDoc], 0, len(upserts)+len(removes))
	for _, d := range upserts {
		p := pack(d)
		old, had := prev.docs.Get(d.Key)
		if had && old == p {
			continue
		}
		edits = append(edits, core.TreeEdit[core.ServiceKey, packedDoc]{Key: d.Key, Val: p})
		ps.upsert(prev, old.doc(d.Key), had, d)
	}
	for _, k := range removes {
		if old, had := prev.docs.Get(k); had {
			edits = append(edits, core.TreeEdit[core.ServiceKey, packedDoc]{Key: k, Del: true})
			ps.remove(prev, old.doc(k))
		}
	}
	if len(edits) == 0 && prev == c.Epoch() {
		return
	}
	slices.SortFunc(edits, func(a, b core.TreeEdit[core.ServiceKey, packedDoc]) int { return a.Key.Compare(b.Key) })
	c.advance(prev, &ps, nil, prev.docs.Patch(edits, nil))
}

// RebuildFromInventory replaces the whole index with one over a frozen
// inventory: one ordered walk of its record store (Inventory.EachService)
// files every key's postings, and the epoch pins inv for the docs.
func (c *Catalog) RebuildFromInventory(inv *core.Inventory) {
	empty := c.emptyEpoch(c.Epoch().gen)
	var ps postings
	inv.EachService(func(k core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, first, activeAt time.Time) bool {
		ps.upsert(empty, Doc{}, false, docOf(k, rec, prov, first, activeAt))
		return true
	})
	c.advance(empty, &ps, inv, core.Tree[core.ServiceKey, packedDoc]{})
}

// ApplyDelta folds one snapshot transition into the index: an O(churn)
// patch of the postings when the engine produced a delta against the
// inventory the current epoch pins, a full rebuild when it could not
// (delta.Full, or a catalog not yet fed an inventory). This is the
// OnSnapshot observer body; inv is the transition's new inventory.
func (c *Catalog) ApplyDelta(inv *core.Inventory, delta core.SnapshotDelta) {
	prev := c.Epoch()
	if delta.Full || prev.inv == nil {
		c.RebuildFromInventory(inv)
		return
	}
	if len(delta.Added)+len(delta.Updated)+len(delta.Removed) == 0 {
		return
	}
	var ps postings
	for _, ks := range [][]core.ServiceKey{delta.Added, delta.Updated} {
		for _, k := range ks {
			if d, ok := DocFromInventory(inv, k); ok {
				old, had := prev.Doc(k)
				ps.upsert(prev, old, had, d)
			}
		}
	}
	for _, k := range delta.Removed {
		if old, had := prev.Doc(k); had {
			ps.remove(prev, old)
		}
	}
	c.advance(prev, &ps, inv, core.Tree[core.ServiceKey, packedDoc]{})
}

// sortedBases lists the freshness dimension's bucket ids in order.
func sortedBases(m map[int64]keyTree) []int64 {
	out := make([]int64, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}
