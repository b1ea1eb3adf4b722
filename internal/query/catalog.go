package query

import (
	"maps"
	"math"
	"slices"
	"sync/atomic"
	"time"

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

// keyTree is a posting list: the keys filed under one bucket of a
// dimension.
type keyTree = core.Tree[core.ServiceKey, struct{}]

// Source is the frozen store an epoch resolves its docs through: the doc
// under one key, and an ordered walk of the docs of the keys above after
// (every doc when after is nil) until f returns false. A source never
// changes once an epoch holds it.
type Source interface {
	Doc(k core.ServiceKey) (Doc, bool)
	Docs(after *core.ServiceKey, f func(Doc) bool)
}

// invSource is an engine's frozen inventory as a Source; the conversion
// from *core.Inventory allocates nothing.
type invSource core.Inventory

func (s *invSource) Doc(k core.ServiceKey) (Doc, bool) {
	return DocFromInventory((*core.Inventory)(s), k)
}

// Docs builds each doc from what the inventory's walk already read.
func (s *invSource) Docs(after *core.ServiceKey, f func(Doc) bool) {
	(*core.Inventory)(s).EachServiceAfter(after, func(k core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, first, activeAt time.Time) bool {
		return f(docOf(k, rec, prov, first, activeAt))
	})
}

// noDocs is the source of a catalog's initial, empty epoch.
type noDocs struct{}

func (noDocs) Doc(core.ServiceKey) (Doc, bool)       { return Doc{}, false }
func (noDocs) Docs(*core.ServiceKey, func(Doc) bool) {}

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

// Epoch is one immutable index generation: the frozen source its docs
// live in plus the four secondary dimensions, each a bucket map of
// persistent key trees sharing state with the previous epoch. Readers
// navigate an epoch lock-free; it never changes after publication.
//
// An epoch holds no doc of its own: a service's weights and times live
// once, in the source — an engine's inventory, or the aggregator's cell
// tree. There is no prefix dimension: keys sort address-major, so any
// prefix is one contiguous run of the source's key walk.
type Epoch struct {
	gen        uint64
	n          int
	freshWidth time.Duration
	src        Source
	byPort     map[uint16]keyTree
	byProv     map[core.Provenance]keyTree
	byCat      map[Category]keyTree
	byFresh    map[int64]keyTree // freshBucket(Last) → keys
	freshBases []int64           // sorted bucket ids
}

// Gen returns the epoch's generation counter (0 = empty initial epoch).
func (e *Epoch) Gen() uint64 { return e.gen }

// Len returns the number of indexed services.
func (e *Epoch) Len() int { return e.n }

// Doc returns the indexed doc for one key.
func (e *Epoch) Doc(k core.ServiceKey) (Doc, bool) { return e.src.Doc(k) }

var minBucketTime, maxBucketTime = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// freshBucket is the freshness bucket of t: its Unix nanoseconds floored
// to a multiple of freshWidth, with times beyond 1678–2262 (where UnixNano
// is undefined) clamped to the range's ends, and for "no last evidence"
// (the zero time) a bucket of its own below every other.
func (e *Epoch) freshBucket(t time.Time) int64 {
	var ns int64
	switch {
	case t.IsZero():
		return math.MinInt64
	case t.Before(minBucketTime):
		ns = math.MinInt64
	case t.After(maxBucketTime):
		ns = math.MaxInt64
	default:
		ns = t.UnixNano()
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
// one atomic pointer. Every epoch reads a frozen Source: an engine feeds
// its inventories (RebuildFromInventory, ApplyDelta, both ending in the
// same install Advance does), the aggregator its flushed cell trees
// (Advance).
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
	c.cur.Store(&Epoch{freshWidth: freshWidth, src: noDocs{}})
	return c
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
	k, nb := d.Key, e.freshBucket(d.Last)
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
	if ob := e.freshBucket(old.Last); ob != nb {
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
	ps.fresh.del(e.freshBucket(old.Last), k)
}

// filed is one doc in a bottom-up build: its key, and its bucket in each
// dimension (port, provenance, category, freshness) as an index into
// that dimension's buckets.
type filed struct {
	key core.ServiceKey
	at  [4]int32
}

// bulk is one dimension of a bottom-up build: its buckets in first-seen
// order, and how many docs each holds.
type bulk[B comparable] struct {
	at    map[B]int32
	ids   []B
	sizes []int
}

// file counts one more doc under bucket b and returns b's index.
func (d *bulk[B]) file(b B) int32 {
	i, ok := d.at[b]
	if !ok {
		if d.at == nil {
			d.at = map[B]int32{}
		}
		i = int32(len(d.ids))
		d.at[b] = i
		d.ids, d.sizes = append(d.ids, b), append(d.sizes, 0)
	}
	d.sizes[i]++
	return i
}

// trees files docs, in key order, into entry arrays of their buckets'
// exact sizes (docs[i].at[dim] naming the bucket) and builds each
// bucket's posting tree over its array.
func (d *bulk[B]) trees(docs []filed, dim int) map[B]keyTree {
	ents := make([][]core.TreeEntry[core.ServiceKey, struct{}], len(d.ids))
	for i, n := range d.sizes {
		ents[i] = make([]core.TreeEntry[core.ServiceKey, struct{}], 0, n)
	}
	for i := range docs {
		b := docs[i].at[dim]
		ents[b] = append(ents[b], core.TreeEntry[core.ServiceKey, struct{}]{Key: docs[i].key})
	}
	out := make(map[B]keyTree, len(d.ids))
	for i, b := range d.ids {
		out[b] = core.BuildTree(ents[i])
	}
	return out
}

// build installs the successor of generation gen over src, every posting
// tree built bottom up from one ordered walk of src's docs (about hint of
// them). Keys arrive in order, so nothing is sorted, and no edit list or
// patch is made.
func (c *Catalog) build(gen uint64, src Source, hint int) {
	next := &Epoch{gen: gen + 1, freshWidth: c.freshWidth, src: src}
	docs := make([]filed, 0, hint)
	var port bulk[uint16]
	var prov bulk[core.Provenance]
	var cat bulk[Category]
	var fresh bulk[int64]
	src.Docs(nil, func(d Doc) bool {
		docs = append(docs, filed{d.Key, [4]int32{port.file(d.Key.Port), prov.file(d.Prov),
			cat.file(CategoryOf(d.Key)), fresh.file(next.freshBucket(d.Last))}})
		return true
	})
	next.n = len(docs)
	next.byPort = port.trees(docs, 0)
	next.byProv = prov.trees(docs, 1)
	next.byCat = cat.trees(docs, 2)
	next.byFresh = fresh.trees(docs, 3)
	next.freshBases = sortedBases(next.byFresh)
	c.cur.Store(next)
}

// Advance installs the epoch over src, a frozen store whose docs differ
// from the current epoch's source at most under the keys in changed
// (duplicate-free, any order): each such key's postings move from its
// current doc to its doc in src, or out of the index when src has none.
// Cost is O(changes · log n) — the persistent trees path-copy only what
// moved, and the dimension maps are cloned at bucket granularity. Over an
// empty epoch every doc of src is under changed, so the epoch is built
// bottom up instead (build). Every call installs a new epoch, so the
// generation counts the sources the catalog was handed. It reports
// whether it built rather than patched.
func (c *Catalog) Advance(src Source, changed []core.ServiceKey) (built bool) {
	prev := c.Epoch()
	if prev.n == 0 {
		c.build(prev.gen, src, len(changed))
		return true
	}
	var ps postings
	for _, k := range changed {
		old, had := prev.Doc(k)
		if d, ok := src.Doc(k); ok {
			ps.upsert(prev, old, had, d)
		} else if had {
			ps.remove(prev, old)
		}
	}
	next := &Epoch{
		gen:        prev.gen + 1,
		freshWidth: prev.freshWidth,
		src:        src,
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
	for _, t := range next.byProv {
		next.n += t.Len()
	}
	c.cur.Store(next)
	return false
}

// RebuildFromInventory replaces the whole index with one over a frozen
// inventory, built bottom up from one ordered walk of its record store;
// the epoch reads inv for the docs.
func (c *Catalog) RebuildFromInventory(inv *core.Inventory) {
	c.build(c.Epoch().gen, (*invSource)(inv), inv.Len())
}

// Epoch-install paths ApplyDelta reports: a bottom-up build, or a patch
// of the current epoch.
const (
	PathBuild = "build"
	PathPatch = "patch"
)

// ApplyDelta folds one snapshot transition into the index: an Advance
// over the delta's keys when the engine produced a delta against the
// inventory the current epoch reads, a full rebuild when it could not
// (delta.Full, or a catalog not yet fed). This is the OnSnapshot observer
// body; inv is the transition's new inventory. It returns the path that
// installed the new epoch, PathBuild or PathPatch, or "" when the delta
// moved no key and no epoch was installed.
func (c *Catalog) ApplyDelta(inv *core.Inventory, delta core.SnapshotDelta) string {
	switch {
	case delta.Full || c.Epoch().gen == 0:
		c.RebuildFromInventory(inv)
		return PathBuild
	case len(delta.Added)+len(delta.Updated)+len(delta.Removed) > 0:
		if c.Advance((*invSource)(inv), slices.Concat(delta.Added, delta.Updated, delta.Removed)) {
			return PathBuild
		}
		return PathPatch
	}
	return ""
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
