package core

// Retention: TTL-based expiry of service records, the "forgetting" half of
// a deployable inventory (DHCP churn, transient services).
//
// All deadlines run on the OBSERVATION clock — packet timestamps — never
// wall time, so replays and live runs expire identically. A passive record
// expires when the engine's watermark (the maximum packet timestamp ever
// dispatched) passes LastSeen+TTL; an active record when the watermark
// passes its last successful probe answer plus the active TTL.
//
// Expiry is decided at two points, chosen so the outcome is independent of
// snapshot cadence for monotone observation clocks:
//
//   - observe-side: when new evidence for a key arrives at or after the old
//     record's deadline, the old incarnation is retired on the spot and a
//     fresh record (new FirstSeen, reset weights) is created — regardless
//     of whether any snapshot happened to run in between;
//   - snapshot-side: a per-shard deadline min-heap is drained against the
//     watermark at every freeze, removing records whose deadline passed
//     with no further evidence.
//
// An observe-side retirement is announced at once, ahead of the
// rediscovery; snapshot-side ones are drained at the freeze, sorted by
// (deadline, key), and published as EventServiceExpired — exactly once per
// expiry, and in the same order per key at any shard count or cadence. A
// View, or any snapshot of a closed engine, decides no expiry. Every expiry also
// leaves a tombstone (key → deadline) that seal deltas, merged snapshots,
// checkpoints and federation snapshot frames carry, so late or restarted
// consumers can withdraw state they learned before the expiry.

import (
	"cmp"
	"slices"
	"time"
)

// RetentionPolicy configures TTL expiry. Zero durations disable the
// corresponding mechanism; the zero policy disables retention entirely.
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

// expEntry is one deadline-heap entry. Entries are lazy: a refreshed record
// keeps its stale entries, which re-push with the true deadline when popped.
type expEntry struct {
	at  time.Time
	key ServiceKey
}

// expiredSvc is one pending expiry awaiting publication at the next
// snapshot. Publication is all that is pending: the evidence itself left the
// owning shard's state when it was retired, so a rediscovery in between is
// announced as a fresh ServiceDiscovered (possibly ahead of this notice).
type expiredSvc struct {
	key  ServiceKey
	at   time.Time
	prov Provenance
}

// sortExpired orders pending expiries canonically: by deadline, then key,
// then provenance — the published EventServiceExpired order, identical at
// any shard count.
func sortExpired(exp []expiredSvc) {
	slices.SortFunc(exp, func(a, b expiredSvc) int {
		return cmp.Or(a.at.Compare(b.at), a.key.Compare(b.key), cmp.Compare(a.prov, b.prov))
	})
}

// expPush adds a deadline entry (sift-up on a binary min-heap by at).
func (d *PassiveDiscoverer) expPush(at time.Time, key ServiceKey) {
	d.expq = append(d.expq, expEntry{at: at, key: key})
	i := len(d.expq) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !d.expq[i].at.Before(d.expq[p].at) {
			break
		}
		d.expq[i], d.expq[p] = d.expq[p], d.expq[i]
		i = p
	}
}

// expPop removes and returns the earliest-deadline entry.
func (d *PassiveDiscoverer) expPop() expEntry {
	top := d.expq[0]
	last := len(d.expq) - 1
	d.expq[0] = d.expq[last]
	d.expq = d.expq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(d.expq) && d.expq[l].at.Before(d.expq[min].at) {
			min = l
		}
		if r < len(d.expq) && d.expq[r].at.Before(d.expq[min].at) {
			min = r
		}
		if min == i {
			return top
		}
		d.expq[i], d.expq[min] = d.expq[min], d.expq[i]
		i = min
	}
}

// setRetention switches passive TTL expiry on (or off) and seeds the
// deadline heap from whatever the discoverer already holds, so retention
// configured after a checkpoint restore still covers restored records.
// Call only from the shard's owner (pre-Run, or under the dispatch lock).
func (d *PassiveDiscoverer) setRetention(ttl time.Duration) {
	d.ttl = ttl
	d.expq = d.expq[:0]
	if ttl <= 0 {
		return
	}
	d.eachService(func(k ServiceKey, rec *PassiveRecord) { d.expPush(rec.LastSeen().Add(ttl), k) })
}

// retire removes the record's live state — a retire marker hides any older
// incarnation below the write layer — and leaves a tombstone at the given
// deadline: the shared half of observe-side and snapshot-side expiry.
func (d *PassiveDiscoverer) retire(key ServiceKey, deadline time.Time) {
	d.records.put(key, nil)
	delete(d.peers, key)
	d.tombstones.put(key, deadline)
}

// expireDue drains every deadline at or before the watermark, expiring
// records whose evidence really has gone stale and lazily re-pushing
// entries whose record was refreshed since the entry was pushed. Runs on
// the shard's owner goroutine at freeze time, under the shard lock, right
// before the seal that reports the expiries.
func (d *PassiveDiscoverer) expireDue(wm time.Time) {
	if d.ttl <= 0 || wm.IsZero() {
		return
	}
	for len(d.expq) > 0 && !d.expq[0].at.After(wm) {
		e := d.expPop()
		rec := d.service(e.key)
		if rec == nil {
			continue // already expired or retired under an earlier entry
		}
		deadline := rec.LastSeen().Add(d.ttl)
		if deadline.After(wm) {
			d.expPush(deadline, e.key) // refreshed since the stale entry
			continue
		}
		d.retire(e.key, deadline)
		d.pendingExpired = append(d.pendingExpired, expiredSvc{key: e.key, at: deadline, prov: PassiveOnly})
	}
}
