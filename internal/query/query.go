package query

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// Query is one typed request against the index. Zero-valued fields are
// wildcards; set fields are conjunctive (all must match). Results come
// back in the canonical (addr, proto, port) order regardless of which
// index dimension drove the scan, so identical queries against identical
// epochs are byte-identical — and pagination via PageToken is stable.
type Query struct {
	// Port restricts to one destination port (0 = any).
	Port uint16
	// Proto restricts to one transport (0 = any).
	Proto packet.IPProtocol
	// Category restricts to one application class (CatAny = any).
	Category Category
	// Prefix restricts to an owner subnet. The zero Prefix is a wildcard.
	Prefix netaddr.Prefix
	// Provenance restricts to one class when HasProvenance is set (the
	// zero Provenance is a real class, PassiveOnly).
	Provenance    core.Provenance
	HasProvenance bool
	// MinFreshness keeps only services with evidence at or after this
	// time (zero = any).
	MinFreshness time.Time
	// Limit caps the hits per page (DefaultLimit when <= 0, clamped to
	// MaxLimit).
	Limit int
	// PageToken resumes a paginated scan where the previous Result left
	// off (Result.NextPageToken). Empty starts from the beginning.
	PageToken string
}

// Limits for one result page.
const (
	DefaultLimit = 1000
	MaxLimit     = 10000
)

// Result is one page of hits plus the cursor for the next.
type Result struct {
	Hits []Doc `json:"hits"`
	// NextPageToken is non-empty when more hits may follow; feed it back
	// via Query.PageToken. Deterministic for a given epoch and query.
	NextPageToken string `json:"next_page_token,omitempty"`
	// Epoch identifies the index generation that answered.
	Epoch uint64 `json:"epoch"`
	// Total is the number of services in the index (not the match count —
	// counting matches would cost a full scan).
	Total int `json:"total"`
}

// pageToken encodes the last-returned key as "addr:port/proto" (the
// ServiceKey string form). parseKey inverts it.
func pageToken(k core.ServiceKey) string { return k.String() }

// ParseKey parses the "addr:port/proto" form ServiceKey.String renders —
// page tokens and exact-key query params.
func ParseKey(s string) (core.ServiceKey, error) {
	var k core.ServiceKey
	slash := strings.LastIndexByte(s, '/')
	if slash < 0 {
		return k, fmt.Errorf("query: key %q: missing /proto", s)
	}
	if err := k.Proto.UnmarshalText([]byte(s[slash+1:])); err != nil {
		return k, fmt.Errorf("query: key %q: %v", s, err)
	}
	colon := strings.LastIndexByte(s[:slash], ':')
	if colon < 0 {
		return k, fmt.Errorf("query: key %q: missing :port", s)
	}
	port, err := strconv.ParseUint(s[colon+1:slash], 10, 16)
	if err != nil {
		return k, fmt.Errorf("query: key %q: bad port: %v", s, err)
	}
	k.Port = uint16(port)
	addr, err := netaddr.ParseV4(s[:colon])
	if err != nil {
		return k, fmt.Errorf("query: key %q: %v", s, err)
	}
	k.Addr = addr
	return k, nil
}

// matchesKey and matchesDoc are the residual filter applied to candidates
// regardless of which dimension produced them. matchesKey applies the
// predicates the key alone decides, so a candidate that fails them costs
// no doc lookup.
func (q *Query) matchesKey(k core.ServiceKey) bool {
	return (q.Port == 0 || k.Port == q.Port) &&
		(q.Proto == 0 || k.Proto == q.Proto) &&
		(q.Category == CatAny || CategoryOf(k) == q.Category) &&
		(q.Prefix.Bits() == 0 || q.Prefix.Contains(k.Addr))
}

// matchesDoc applies the predicates that need the doc.
func (q *Query) matchesDoc(d Doc) bool {
	return (!q.HasProvenance || d.Prov == q.Provenance) &&
		(q.MinFreshness.IsZero() || !d.Last.Before(q.MinFreshness))
}

// Dimension names the index dimension that would drive this query's
// scan — the same selection switch Epoch.Query applies, exposed so
// callers can label query-latency metrics by execution strategy
// ("which index answered") rather than by raw parameter shape.
func (q Query) Dimension() string {
	switch {
	case q.Prefix.Bits() == 32 && q.Port != 0 && q.Proto != 0:
		return "key"
	case q.Prefix.Bits() >= 24:
		return "prefix24"
	case q.Port != 0:
		return "port"
	case q.Category != CatAny:
		return "category"
	case q.Prefix.Bits() != 0:
		return "prefix"
	case q.HasProvenance:
		return "provenance"
	case !q.MinFreshness.IsZero():
		return "freshness"
	default:
		return "scan"
	}
}

// limit returns the clamped page size.
func (q *Query) limit() int {
	switch {
	case q.Limit <= 0:
		return DefaultLimit
	case q.Limit > MaxLimit:
		return MaxLimit
	default:
		return q.Limit
	}
}

// Query runs one request against this epoch. The epoch is immutable, so
// any number of goroutines may query it concurrently, lock-free, while
// the catalog builds successors.
func (e *Epoch) Query(q Query) (Result, error) {
	var after *core.ServiceKey
	if q.PageToken != "" {
		k, err := ParseKey(q.PageToken)
		if err != nil {
			return Result{}, fmt.Errorf("bad page token: %v", err)
		}
		after = &k
	}
	res := Result{Epoch: e.gen, Total: e.Len()}
	if q.Prefix.Bits() == 32 && q.Port != 0 && q.Proto != 0 {
		// Point lookup: the predicates pin one exact key (the key= form),
		// so resolve it directly — O(log n), no posting-bucket scan. The
		// full predicate set still applies, so freshness and provenance
		// filters compose with the probe.
		k := core.ServiceKey{Addr: q.Prefix.Base(), Proto: q.Proto, Port: q.Port}
		res.Hits = make([]Doc, 0, 1)
		if d, ok := e.Doc(k); ok && (after == nil || after.Before(k)) && q.matchesKey(k) && q.matchesDoc(d) {
			res.Hits = append(res.Hits, d)
		}
		return res, nil
	}
	res.Hits, res.NextPageToken = e.scan(q, after)
	return res, nil
}

// scan answers every query but a point lookup. It is apart from Query
// because its closures reach the source's doc walk, an interface call,
// and so live on the heap; a point lookup allocates only its hit.
func (e *Epoch) scan(q Query, after *core.ServiceKey) (hits []Doc, next string) {
	limit := q.limit()
	hits = make([]Doc, 0, min(limit, 64))
	// take keeps a candidate the doc predicates pass; one past the page
	// ends the walk and names the page's last hit as the next cursor.
	take := func(d Doc) bool {
		if !q.matchesDoc(d) {
			return true
		}
		if len(hits) == limit {
			next = pageToken(hits[limit-1].Key)
			return false
		}
		hits = append(hits, d)
		return true
	}
	// emit resolves a posting walk's key to its doc, unless the key alone
	// fails the query; emitDoc filters a doc walk's doc.
	emit := func(k core.ServiceKey) bool {
		if !q.matchesKey(k) {
			return true
		}
		d, ok := e.Doc(k)
		return !ok || take(d)
	}
	emitDoc := func(d Doc) bool { return !q.matchesKey(d.Key) || take(d) }

	// prefixRun walks the query prefix's docs. Keys sort address-major, so
	// a prefix of any length is one contiguous run of the doc walk: seek
	// past the largest key an address below the prefix could have (or to
	// the page cursor, if that is further), walk until the address leaves
	// the prefix. Each doc comes from the walk itself, with no descent.
	prefixRun := func() {
		start := after
		if base := q.Prefix.Base(); base > 0 && (after == nil || after.Addr < base) {
			start = &core.ServiceKey{Addr: base - 1, Proto: ^packet.IPProtocol(0), Port: ^uint16(0)}
		}
		last := q.Prefix.Last()
		e.src.Docs(start, func(d Doc) bool { return d.Key.Addr <= last && emitDoc(d) })
	}

	// Pick the candidate source: the most selective dimension the query
	// names. Every source yields candidates in canonical key order; emit
	// post-filters with the full predicate set.
	switch {
	case q.Prefix.Bits() >= 24:
		// At most 256 addresses: narrower than any posting list worth having.
		prefixRun()
	case q.Port != 0:
		iterate(e.byPort[q.Port], after, emit)
	case q.Category != CatAny:
		iterate(e.byCat[q.Category], after, emit)
	case q.Prefix.Bits() != 0:
		prefixRun()
	case q.HasProvenance:
		iterate(e.byProv[q.Provenance], after, emit)
	case !q.MinFreshness.IsZero():
		// Qualifying freshness buckets, k-way merged back into key order.
		// The bucket at the boundary may contain too-old entries; emit's
		// residual filter drops them.
		floor := e.freshBucket(q.MinFreshness)
		lo := sort.Search(len(e.freshBases), func(i int) bool { return e.freshBases[i] >= floor })
		var cursors []core.TreeCursor[core.ServiceKey, struct{}]
		for _, b := range e.freshBases[lo:] {
			cursors = append(cursors, e.byFresh[b].Seek(after))
		}
		mergeIterate(cursors, emit)
	default:
		e.src.Docs(after, emitDoc)
	}
	return hits, next
}

// iterate walks one posting tree from the cursor position until f returns
// false.
func iterate(t keyTree, after *core.ServiceKey, f func(core.ServiceKey) bool) {
	t.Walk(after, func(k core.ServiceKey, _ struct{}) bool { return f(k) })
}

// mergeIterate merges already-positioned cursors into one key-ordered
// stream. Posting lists are disjoint (a key lives in exactly one bucket
// per dimension), so no dedup is needed.
func mergeIterate(cs []core.TreeCursor[core.ServiceKey, struct{}], f func(core.ServiceKey) bool) {
	// Small-k loser-free heap: linear scan for the minimum head. The
	// freshness dimension yields one cursor per bucket in the window —
	// typically a handful.
	for {
		best := -1
		var bestKey core.ServiceKey
		for i := range cs {
			e, ok := cs[i].Peek()
			if !ok {
				continue
			}
			if best < 0 || e.Key.Before(bestKey) {
				best, bestKey = i, e.Key
			}
		}
		if best < 0 {
			return
		}
		cs[best].Next()
		if !f(bestKey) {
			return
		}
	}
}

// ParseHTTP builds a Query from URL parameters — the /query endpoint
// contract shared by passived and federated:
//
//	port=443 proto=tcp category=web prefix=10.16.0.0/16
//	prov=passive-only since=2006-09-19T00:00:00Z (or since=3600s ago)
//	limit=100 page=<next_page_token> key=10.16.0.9:443/tcp
//
// key= is the point-lookup shorthand: it expands to Prefix=<addr>/32,
// Port and Proto.
func ParseHTTP(values url.Values) (Query, error) {
	var q Query
	if s := values.Get("key"); s != "" {
		k, err := ParseKey(s)
		if err != nil {
			return q, err
		}
		q.Prefix, _ = netaddr.NewPrefix(k.Addr, 32)
		q.Port = k.Port
		q.Proto = k.Proto
	}
	if s := values.Get("port"); s != "" {
		p, err := strconv.ParseUint(s, 10, 16)
		if err != nil || p == 0 {
			return q, fmt.Errorf("bad port %q", s)
		}
		q.Port = uint16(p)
	}
	if s := values.Get("proto"); s != "" {
		if err := q.Proto.UnmarshalText([]byte(s)); err != nil {
			return q, err
		}
	}
	if s := values.Get("category"); s != "" {
		c, ok := ParseCategory(s)
		if !ok {
			return q, fmt.Errorf("bad category %q", s)
		}
		q.Category = c
	}
	if s := values.Get("prefix"); s != "" {
		p, err := netaddr.ParsePrefix(s)
		if err != nil {
			return q, err
		}
		q.Prefix = p
	}
	if s := values.Get("prov"); s != "" {
		if err := q.Provenance.UnmarshalText([]byte(s)); err != nil {
			return q, err
		}
		q.HasProvenance = true
	}
	if s := values.Get("since"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return q, fmt.Errorf("bad since %q (want RFC3339)", s)
		}
		q.MinFreshness = t
	}
	if s := values.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return q, fmt.Errorf("bad limit %q", s)
		}
		q.Limit = n
	}
	q.PageToken = values.Get("page")
	return q, nil
}
