package query

import (
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
// plain values — an epoch holds millions of them in a persistent tree and
// hands them out by value, so queries never touch (or pin) engine state.
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

// packedDoc is a Doc as the doc tree stores it: 40 pointer-free bytes
// instead of 80 with two *Location for the collector to scan. Times are
// Unix nanoseconds plus a presence flag (absent = time.Time{}, stored as
// 0, so packed docs compare with ==), clamped to the int64-nanosecond
// range. Flows stays 64-bit; clients saturates at 2^32-1, which distinct
// IPv4 peers cannot exceed.
type packedDoc struct {
	first, last       int64
	flows             int
	key               core.ServiceKey
	clients           uint32
	prov              core.Provenance
	hasFirst, hasLast bool
}

const _ = uint(40 - unsafe.Sizeof(packedDoc{})) // <= 40

func (p packedDoc) skey() core.ServiceKey { return p.key }

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

// pack stores d in tree form (Rebuild and Patch, on the way in).
func pack(d Doc) packedDoc {
	p := packedDoc{
		flows:   d.Flows,
		key:     d.Key,
		clients: uint32(min(uint64(max(d.Clients, 0)), math.MaxUint32)),
		prov:    d.Prov,
	}
	p.first, p.hasFirst = packTime(d.First)
	p.last, p.hasLast = packTime(d.Last)
	return p
}

// doc renders p as the API type (Epoch.Doc and Query, on the way out);
// times come back in UTC.
func (p packedDoc) doc() Doc {
	return Doc{
		Key:     p.key,
		Prov:    p.prov,
		First:   unpackTime(p.first, p.hasFirst),
		Last:    unpackTime(p.last, p.hasLast),
		Flows:   p.flows,
		Clients: int(p.clients),
	}
}

// DocFromInventory builds the query doc for one inventory key.
func DocFromInventory(inv *core.Inventory, k core.ServiceKey) Doc {
	rec, prov, first, activeAt, _ := inv.Service(k)
	return docOf(k, rec, prov, first, activeAt)
}

// docOf builds the query doc from what Inventory.Service (or EachService)
// reports about one key.
func docOf(k core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, first, activeAt time.Time) Doc {
	d := Doc{Key: k, Prov: prov, First: first}
	if rec != nil {
		d.Last = rec.LastSeen()
		d.Flows = rec.Flows
		d.Clients = rec.Clients()
	} else {
		d.Last = activeAt // a probe-only service was last heard from when it answered
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

// provClasses is the size of the provenance dimension.
const provClasses = 4

// Epoch is one immutable index generation: the doc tree plus every
// secondary dimension, all persistent structures sharing state with the
// previous epoch. Readers navigate an epoch lock-free; it never changes
// after publication. There is no prefix dimension: keys sort address-major,
// so any prefix is one contiguous run of the doc tree itself.
type Epoch struct {
	gen        uint64
	freshWidth time.Duration
	docs       stree[packedDoc]
	byPort     map[uint16]stree[keyEntry]
	byProv     [provClasses]stree[keyEntry]
	byCat      map[Category]stree[keyEntry]
	byFresh    map[int64]stree[keyEntry] // freshBucket(Last) → keys
	freshBases []int64                   // sorted bucket ids
}

// Gen returns the epoch's generation counter (0 = empty initial epoch).
func (e *Epoch) Gen() uint64 { return e.gen }

// Len returns the number of indexed services.
func (e *Epoch) Len() int { return e.docs.len() }

// Doc returns the indexed doc for one key.
func (e *Epoch) Doc(k core.ServiceKey) (Doc, bool) {
	p, ok := e.docs.get(k)
	return p.doc(), ok
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

// Catalog owns the epoch chain: Patch and Rebuild install new epochs
// (caller-serialized — in the engine they run under the snapshot lock),
// while any number of concurrent readers load the current epoch through
// one atomic pointer.
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
	c.cur.Store(c.emptyEpoch())
	return c
}

func (c *Catalog) emptyEpoch() *Epoch {
	return &Epoch{
		freshWidth: c.freshWidth,
		byPort:     map[uint16]stree[keyEntry]{},
		byCat:      map[Category]stree[keyEntry]{},
		byFresh:    map[int64]stree[keyEntry]{},
	}
}

// Epoch returns the current index epoch — an immutable value, safe to
// read for as long as the caller likes regardless of later patches.
func (c *Catalog) Epoch() *Epoch { return c.cur.Load() }

// Len returns the current epoch's service count.
func (c *Catalog) Len() int { return c.Epoch().Len() }

// dimDelta accumulates one dimension's bucket-level add/del key lists.
// Lists are re-sorted at apply time: a bucket's deletions interleave keys
// from the upsert loop (bucket migrations) and the remove loop, so append
// order is not globally sorted.
type dimDelta[B comparable] struct {
	adds map[B][]keyEntry
	dels map[B][]core.ServiceKey
}

func (d *dimDelta[B]) add(b B, k core.ServiceKey) {
	if d.adds == nil {
		d.adds = map[B][]keyEntry{}
	}
	d.adds[b] = append(d.adds[b], keyEntry(k))
}

func (d *dimDelta[B]) del(b B, k core.ServiceKey) {
	if d.dels == nil {
		d.dels = map[B][]core.ServiceKey{}
	}
	d.dels[b] = append(d.dels[b], k)
}

// apply patches one dimension's bucket map, cloning it only when at least
// one bucket changed. Returns the (possibly shared) new map and whether
// the set of buckets changed.
func (d *dimDelta[B]) apply(prev map[B]stree[keyEntry]) (map[B]stree[keyEntry], bool) {
	if d.adds == nil && d.dels == nil {
		return prev, false
	}
	next := make(map[B]stree[keyEntry], len(prev)+len(d.adds))
	for b, t := range prev {
		next[b] = t
	}
	basesChanged := false
	touched := map[B]bool{}
	for b := range d.adds {
		touched[b] = true
	}
	for b := range d.dels {
		touched[b] = true
	}
	for b := range touched {
		before, existed := next[b]
		after := before.patch(sortEntries(d.adds[b]), sortKeys(d.dels[b]))
		if after.len() == 0 {
			if existed {
				delete(next, b)
				basesChanged = true
			}
			continue
		}
		if !existed {
			basesChanged = true
		}
		next[b] = after
	}
	return next, basesChanged
}

// Patch advances the catalog one epoch: upserts (sorted by key,
// duplicate-free) replace or insert docs, removes (sorted, disjoint from
// upserts) delete them. Cost is O(changes · log n) — the persistent trees
// path-copy only what moved, and the dimension maps are cloned at bucket
// granularity. No-op patches (every upsert equal to the stored doc) keep
// the current epoch.
func (c *Catalog) Patch(upserts []Doc, removes []core.ServiceKey) {
	prev := c.Epoch()
	var docAdds []packedDoc
	var docDels []core.ServiceKey
	var port dimDelta[uint16]
	var cat dimDelta[Category]
	var fresh dimDelta[int64]
	var provAdds [provClasses][]keyEntry
	var provDels [provClasses][]core.ServiceKey

	for _, ud := range upserts {
		d := pack(ud)
		old, had := prev.docs.get(d.key)
		if had && old == d {
			continue
		}
		docAdds = append(docAdds, d)
		if had {
			// Key-derived dimensions (port, category) cannot move;
			// provenance and freshness can.
			if old.prov != d.prov {
				provDels[old.prov%provClasses] = append(provDels[old.prov%provClasses], d.key)
				provAdds[d.prov%provClasses] = append(provAdds[d.prov%provClasses], keyEntry(d.key))
			}
			if ob, nb := prev.freshBucket(old.last, old.hasLast), prev.freshBucket(d.last, d.hasLast); ob != nb {
				fresh.del(ob, d.key)
				fresh.add(nb, d.key)
			}
			continue
		}
		port.add(d.key.Port, d.key)
		cat.add(CategoryOf(d.key), d.key)
		provAdds[d.prov%provClasses] = append(provAdds[d.prov%provClasses], keyEntry(d.key))
		fresh.add(prev.freshBucket(d.last, d.hasLast), d.key)
	}
	for _, k := range removes {
		old, had := prev.docs.get(k)
		if !had {
			continue
		}
		docDels = append(docDels, k)
		port.del(k.Port, k)
		cat.del(CategoryOf(k), k)
		provDels[old.prov%provClasses] = append(provDels[old.prov%provClasses], k)
		fresh.del(prev.freshBucket(old.last, old.hasLast), k)
	}
	if len(docAdds) == 0 && len(docDels) == 0 {
		return
	}

	next := &Epoch{
		gen:        prev.gen + 1,
		freshWidth: prev.freshWidth,
		docs:       prev.docs.patch(docAdds, docDels),
		byProv:     prev.byProv,
		freshBases: prev.freshBases,
	}
	for p := 0; p < provClasses; p++ {
		next.byProv[p] = next.byProv[p].patch(sortEntries(provAdds[p]), sortKeys(provDels[p]))
	}
	var freshMoved bool
	next.byPort, _ = port.apply(prev.byPort)
	next.byCat, _ = cat.apply(prev.byCat)
	next.byFresh, freshMoved = fresh.apply(prev.byFresh)
	if freshMoved {
		next.freshBases = sortedBases(next.byFresh)
	}
	c.cur.Store(next)
}

// Rebuild replaces the whole index from an inventory-ordered doc list
// (sorted by key) — the full-resync path for lineage breaks, startup
// warms, and aggregator bootstraps. O(n): every tree is packed bottom-up
// from an already-sorted list; Patch is the steady state.
func (c *Catalog) Rebuild(docs []Doc) {
	packed := make([]packedDoc, len(docs))
	for i, d := range docs {
		packed[i] = pack(d)
	}
	c.rebuild(packed)
}

// rebuild is Rebuild over already-packed docs; the new doc tree's leaves
// subslice docs.
func (c *Catalog) rebuild(docs []packedDoc) {
	prevGen := c.Epoch().gen
	next := c.emptyEpoch()
	next.gen = prevGen + 1
	next.docs = stree[packedDoc]{}.patch(docs, nil)
	perPort := map[uint16][]keyEntry{}
	perCat := map[Category][]keyEntry{}
	perFresh := map[int64][]keyEntry{}
	var perProv [provClasses][]keyEntry
	for _, d := range docs {
		k := keyEntry(d.key)
		perPort[d.key.Port] = append(perPort[d.key.Port], k)
		perCat[CategoryOf(d.key)] = append(perCat[CategoryOf(d.key)], k)
		perProv[d.prov%provClasses] = append(perProv[d.prov%provClasses], k)
		b := next.freshBucket(d.last, d.hasLast)
		perFresh[b] = append(perFresh[b], k)
	}
	for p, ks := range perPort {
		next.byPort[p] = stree[keyEntry]{}.patch(ks, nil)
	}
	for ct, ks := range perCat {
		next.byCat[ct] = stree[keyEntry]{}.patch(ks, nil)
	}
	for i, ks := range perProv {
		next.byProv[i] = stree[keyEntry]{}.patch(ks, nil)
	}
	for b, ks := range perFresh {
		next.byFresh[b] = stree[keyEntry]{}.patch(ks, nil)
	}
	next.freshBases = sortedBases(next.byFresh)
	c.cur.Store(next)
}

// RebuildFromInventory is Rebuild fed straight from a frozen inventory: one
// ordered walk of its record store (Inventory.EachService), packed as it
// goes, with no descent per key.
func (c *Catalog) RebuildFromInventory(inv *core.Inventory) {
	docs := make([]packedDoc, 0, inv.Len())
	inv.EachService(func(k core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, first, activeAt time.Time) bool {
		docs = append(docs, pack(docOf(k, rec, prov, first, activeAt)))
		return true
	})
	c.rebuild(docs)
}

// ApplyDelta folds one snapshot transition into the index: an O(churn)
// patch when the engine produced a delta, a full rebuild when it could
// not (delta.Full). This is the OnSnapshot observer body; prev/inv are
// the transition's inventories as the engine reported them.
func (c *Catalog) ApplyDelta(inv *core.Inventory, delta core.SnapshotDelta) {
	if delta.Full {
		c.RebuildFromInventory(inv)
		return
	}
	n := len(delta.Added) + len(delta.Updated)
	if n == 0 && len(delta.Removed) == 0 {
		return
	}
	ups := make([]Doc, 0, n)
	for _, k := range core.MergeSortedKeys(delta.Updated, delta.Added) {
		ups = append(ups, DocFromInventory(inv, k))
	}
	c.Patch(ups, delta.Removed)
}

func sortEntries(es []keyEntry) []keyEntry {
	slices.SortFunc(es, func(a, b keyEntry) int { return cmpKeys(a.skey(), b.skey()) })
	return es
}

func sortKeys(ks []core.ServiceKey) []core.ServiceKey {
	core.SortKeys(ks)
	return ks
}

// sortedBases lists the freshness dimension's bucket ids in order.
func sortedBases(m map[int64]stree[keyEntry]) []int64 {
	out := make([]int64, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}
