package core

// Retention: TTL-based expiry of service records, the "forgetting" half of
// a deployable inventory (DHCP churn, transient services).
//
// All deadlines run on the OBSERVATION clock — packet timestamps — never
// wall time, so replays and live runs expire identically. A passive record
// is due once the clock passes LastSeen+TTL; a probe answer once it passes
// its newest answer plus the active TTL.
//
// One rule decides expiry: whatever touches a key first retires that key's
// dead incarnations, both techniques', in (deadline, provenance) order, and
// announces each retirement as EventServiceExpired under the owner shard's
// lock. The clock depends on what touches the key:
//
//   - a packet uses its own timestamp (the fresh record it then creates gets
//     a new FirstSeen and reset weights);
//   - a report's answer uses the watermark read when the report applies;
//   - a freeze uses its boundary's watermark, for every key due: each shard
//     drains a lazy deadline heap ordered by (deadline, key, provenance).
//
// So every freeze decides identically — a Snapshot, a publisher's catchup,
// a closing seal and a checkpoint export are the same read — and each key's
// events and the final inventory are a function of the input order alone,
// whatever the shard count or snapshot cadence. The cadence only sets when
// an untouched key's expiry surfaces. Every expiry also leaves a tombstone
// (key → deadline) that seal deltas, merged snapshots, checkpoints and
// federation snapshot frames carry, so late or restarted consumers can
// withdraw state they learned before the expiry.

import (
	"cmp"
	"time"
)

// RetentionPolicy configures TTL expiry. Zero durations disable the
// corresponding mechanism; the zero policy disables retention entirely.
// Expiry is decided wherever a key is next touched or the engine next
// freezes, at the same deadlines either way (see retention.go).
type RetentionPolicy struct {
	// PassiveTTL expires a passively-discovered record once no positive
	// evidence has arrived for this long (observation clock).
	PassiveTTL time.Duration
	// ActiveTTL expires a probe-discovered record once it has not answered
	// a probe for this long (measured against the passive watermark).
	ActiveTTL time.Duration
}

// Enabled reports whether any expiry mechanism is on.
func (p RetentionPolicy) Enabled() bool { return p.PassiveTTL > 0 || p.ActiveTTL > 0 }

// answer is the join's active half for one key: the live probe answer's
// first time as the join announced it, and its newest, from which its
// deadline runs.
type answer struct{ first, last Instant }

// expEntry is one deadline-heap entry. Entries are lazy: a refreshed
// incarnation keeps its stale entries, which re-push with the true deadline
// when popped.
type expEntry struct {
	at   time.Time
	key  ServiceKey
	prov Provenance // PassiveOnly or ActiveOnly: which technique's deadline
}

func (e *expEntry) before(o *expEntry) bool {
	return cmp.Or(e.at.Compare(o.at), e.key.Compare(o.key), cmp.Compare(e.prov, o.prov)) < 0
}

// expPush adds a deadline entry (sift-up on a binary min-heap).
func (d *PassiveDiscoverer) expPush(at time.Time, key ServiceKey, prov Provenance) {
	d.expq = append(d.expq, expEntry{at: at, key: key, prov: prov})
	i := len(d.expq) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !d.expq[i].before(&d.expq[p]) {
			break
		}
		d.expq[i], d.expq[p] = d.expq[p], d.expq[i]
		i = p
	}
}

// expPop removes and returns the first entry.
func (d *PassiveDiscoverer) expPop() expEntry {
	top := d.expq[0]
	last := len(d.expq) - 1
	d.expq[0] = d.expq[last]
	d.expq = d.expq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(d.expq) && d.expq[l].before(&d.expq[min]) {
			min = l
		}
		if r < len(d.expq) && d.expq[r].before(&d.expq[min]) {
			min = r
		}
		if min == i {
			return top
		}
		d.expq[i], d.expq[min] = d.expq[min], d.expq[i]
		i = min
	}
}

// setRetention sets both TTLs and seeds the deadline heap from whatever the
// discoverer already holds, so retention configured after a checkpoint
// restore still covers restored records and answers. Call only from the
// shard's owner (pre-Run, or under the dispatch lock).
func (d *PassiveDiscoverer) setRetention(p RetentionPolicy) {
	d.ttl, d.activeTTL = p.PassiveTTL, p.ActiveTTL
	d.expq = d.expq[:0]
	if d.ttl > 0 {
		d.eachService(func(k ServiceKey, rec *PassiveRecord) { d.expPush(rec.LastSeen().Add(d.ttl), k, PassiveOnly) })
	}
	if d.activeTTL > 0 {
		for k, a := range d.answers {
			d.expPush(a.last.Time().Add(d.activeTTL), k, ActiveOnly)
		}
	}
}

// addAnswer makes a key's live probe answer and queues its deadline.
func (d *PassiveDiscoverer) addAnswer(key ServiceKey, a answer) {
	d.answers[key] = a
	if d.activeTTL > 0 {
		d.expPush(a.last.Time().Add(d.activeTTL), key, ActiveOnly)
	}
}

// deadline returns when key's live incarnation of prov's technique is due,
// and false when there is none or its TTL is off.
func (d *PassiveDiscoverer) deadline(key ServiceKey, prov Provenance) (time.Time, bool) {
	if prov == ActiveOnly {
		a, ok := d.answers[key]
		return a.last.Time().Add(d.activeTTL), ok && d.activeTTL > 0
	}
	if d.ttl > 0 {
		if rec := d.service(key); rec != nil {
			return rec.LastSeen().Add(d.ttl), true
		}
	}
	return time.Time{}, false
}

// settle retires key's incarnations due at or before wm, in (deadline,
// provenance) order: the rule every touch of a key applies first.
func (d *PassiveDiscoverer) settle(key ServiceKey, wm time.Time) {
	pat, pdue := d.deadline(key, PassiveOnly)
	aat, adue := d.deadline(key, ActiveOnly)
	pdue, adue = pdue && !pat.After(wm), adue && !aat.After(wm)
	if adue && pdue && aat.Before(pat) {
		d.expire(key, aat, ActiveOnly)
		adue = false
	}
	if pdue {
		d.expire(key, pat, PassiveOnly)
	}
	if adue {
		d.expire(key, aat, ActiveOnly)
	}
}

// expire retires one incarnation at its deadline and announces it. A passive
// record leaves the stores at once (retire); a probe answer leaves the join,
// and the store at the next freeze or report that finds it (withdrawn).
func (d *PassiveDiscoverer) expire(key ServiceKey, at time.Time, prov Provenance) {
	if prov == ActiveOnly {
		delete(d.answers, key)
		d.withdrawn = append(d.withdrawn, key)
	} else {
		d.retire(key, at)
	}
	if d.onExpired != nil {
		d.onExpired(key, at, prov)
	}
}

// retire removes the record's live state — a retire marker hides any older
// incarnation below the write layer — and leaves a tombstone at the given
// deadline.
func (d *PassiveDiscoverer) retire(key ServiceKey, deadline time.Time) {
	d.records.put(key, nil)
	delete(d.peers, key)
	d.tombstones.put(key, deadline)
}

// expireDue retires every incarnation due at or before wm, in the heap's
// (deadline, key, provenance) order; an entry whose incarnation was
// refreshed since it was pushed re-queues at the true deadline. Runs at a
// freeze, under the shard lock, right before the seal that reports it.
func (d *PassiveDiscoverer) expireDue(wm time.Time) {
	for len(d.expq) > 0 && !d.expq[0].at.After(wm) {
		e := d.expPop()
		switch at, ok := d.deadline(e.key, e.prov); {
		case !ok: // retired under an earlier entry
		case at.After(e.at):
			d.expPush(at, e.key, e.prov)
		default:
			d.expire(e.key, at, e.prov)
		}
	}
}
