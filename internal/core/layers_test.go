package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// liveServices counts the records a discoverer holds across its layers.
func liveServices(d *PassiveDiscoverer) int {
	n := 0
	d.eachService(func(ServiceKey, *PassiveRecord) { n++ })
	return n
}

// TestShardLayersModel holds the shards' write layers (records, trails and
// tombstones over the last installed tree) to plain maps through a seeded
// random program at 1, 2 and 8 shards: observes, jumps of the observation
// clock past the TTL (so a re-observe splits an incarnation and a snapshot
// expires what went quiet), snapshots, checkpoint exports, restores at
// another shard count with retention set after the import, and a shard
// sealed twice with no install in between — applied inline for odd seeds,
// on running shard workers for even ones. Every record, trail and
// tombstone lookup must match the reference at every step; after every
// snapshot each shard's live and sealed layers are empty, the inventory is
// the reference, and its delta names exactly the keys created, touched and
// lost since the previous one. A base is every shard's merged tree, so the
// restored engine's retention, the whole seals and the baseline exports
// must read only the keys their shard owns from it.
func TestShardLayersModel(t *testing.T) {
	const (
		ttl   = time.Hour
		addrs = 40
		peers = 6
		steps = 400
	)
	ports := []uint16{22, 80}
	nkeys := addrs * len(ports)
	keyOf := func(i int) ServiceKey {
		return ServiceKey{Addr: campusPfx.Base() + netaddr.V4(i/len(ports)), Proto: packet.ProtoTCP, Port: ports[i%len(ports)]}
	}
	type refRec struct {
		first, last time.Time
		flows       int
		peers       map[netaddr.V4]bool
	}
	for _, shards := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*10 + int64(shards)))
				recs := make(map[ServiceKey]*refRec)
				trails := make(map[netaddr.V4][]Instant)
				tombs := make(map[ServiceKey]time.Time)
				var wm time.Time
				now := t0

				// What the next link of the snapshot chain must report.
				created, touched := make(map[ServiceKey]bool), make(map[ServiceKey]bool)
				prevLive := make(map[ServiceKey]bool)
				full := true
				var got SnapshotDelta
				links := 0
				newEngine := func(n int) *ShardedPassive {
					eng := NewShardedPassive(campusPfx, nil, n)
					eng.OnSnapshot(func(_, _ *Inventory, d SnapshotDelta) { got, links = d, links+1 })
					return eng
				}
				// Odd seeds apply inline, even ones on shard workers, so the
				// install after each merge takes the lock a worker applies under.
				start := func(eng *ShardedPassive) {
					eng.SetRetention(RetentionPolicy{PassiveTTL: ttl})
					if seed%2 == 0 {
						eng.Run(context.Background())
					}
					t.Cleanup(eng.Close)
				}
				eng := newEngine(shards)
				start(eng)

				observe := func(k ServiceKey, at time.Time, peer netaddr.V4) {
					r := recs[k]
					if r != nil && !at.Before(r.last.Add(ttl)) {
						tombs[k], r = r.last.Add(ttl), nil
					}
					if r == nil {
						r = &refRec{first: at, peers: make(map[netaddr.V4]bool)}
						recs[k], created[k] = r, true
					}
					touched[k] = true
					r.flows++
					r.last, r.peers[peer] = at, true
					tr, a := trails[k.Addr], ToInstant(at)
					if n := len(tr); n == 0 || a-tr[n-1] >= Instant(time.Minute) {
						trails[k.Addr] = append(tr, a)
					}
					wm = at
				}
				feed := func(n int) {
					var batch []packet.Packet
					for range n {
						now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
						k, peer := keyOf(rng.Intn(nkeys)), netaddr.MustParseV4("64.0.0.1")+netaddr.V4(rng.Intn(peers))
						observe(k, now, peer)
						batch = append(batch, *synAck(now, k.Addr, k.Port, peer))
					}
					eng.HandleBatch(batch)
					eng.Flush()
				}
				check := func(ctx string) {
					t.Helper()
					total := 0
					for _, sh := range eng.shards {
						total += liveServices(sh.disc)
					}
					if total != len(recs) {
						t.Fatalf("%s: the shards list %d services, reference %d", ctx, total, len(recs))
					}
					for i := range nkeys {
						k := keyOf(i)
						d, r := eng.owner(k).disc, recs[k]
						rec := d.service(k)
						if (rec == nil) != (r == nil) {
							t.Fatalf("%s: %v record %v, reference %v", ctx, k, rec != nil, r != nil)
						}
						if r != nil && (!rec.FirstSeen().Equal(r.first) || !rec.LastSeen().Equal(r.last) || rec.Flows != r.flows || rec.Clients() != len(r.peers)) {
							t.Fatalf("%s: %v is %v..%v flows=%d clients=%d, reference %v..%v flows=%d clients=%d", ctx, k,
								rec.FirstSeen(), rec.LastSeen(), rec.Flows, rec.Clients(), r.first, r.last, r.flows, len(r.peers))
						}
						at, ok := d.tombstones.get(k)
						if want, wok := tombs[k]; ok != wok || !at.Equal(want) {
							t.Fatalf("%s: %v tombstone %v (%v), reference %v (%v)", ctx, k, at, ok, want, wok)
						}
					}
					for i := range addrs {
						a := campusPfx.Base() + netaddr.V4(i)
						if tr, _ := eng.shards[eng.shardOf(a)].disc.trails.get(a); !slices.Equal(tr, trails[a]) {
							t.Fatalf("%s: %v trail %v, reference %v", ctx, a, tr, trails[a])
						}
					}
				}
				// sweep is the expiry every freeze runs at the watermark.
				sweep := func() {
					for k, r := range recs {
						if dl := r.last.Add(ttl); !dl.After(wm) {
							tombs[k] = dl
							delete(recs, k)
						}
					}
				}
				// linked checks the chain's newest link against the reference.
				linked := func(ctx string, inv *Inventory, before int) {
					t.Helper()
					if links != before+1 {
						t.Fatalf("%s: %d links observed, want one", ctx, links-before)
					}
					for i, sh := range eng.shards {
						d := sh.disc
						if n := len(d.records.live) + len(d.records.sealed) + len(d.trails.live) + len(d.trails.sealed) +
							len(d.tombstones.live) + len(d.tombstones.sealed); n != 0 {
							t.Fatalf("%s: shard %d holds %d layered entries after the install", ctx, i, n)
						}
					}
					if inv.Len() != len(recs) {
						t.Fatalf("%s: inventory holds %d services, reference %d", ctx, inv.Len(), len(recs))
					}
					var added, updated, removed []ServiceKey
					for i := range nkeys {
						k := keyOf(i)
						rec, ok := inv.Record(k)
						r := recs[k]
						if ok != (r != nil) || r != nil && (!rec.LastSeen().Equal(r.last) || rec.Flows != r.flows) {
							t.Fatalf("%s: inventory has %v = %v, reference %v", ctx, k, ok, r != nil)
						}
						switch {
						case r != nil && created[k]:
							added = append(added, k)
						case r != nil && touched[k]:
							updated = append(updated, k)
						case r == nil && prevLive[k]:
							removed = append(removed, k)
						}
					}
					if got.Full != full {
						t.Fatalf("%s: delta Full=%v, want %v", ctx, got.Full, full)
					}
					if !full && (!slices.Equal(got.Added, added) || !slices.Equal(got.Updated, updated) || !slices.Equal(got.Removed, removed)) {
						t.Fatalf("%s: delta +%v ~%v -%v, reference +%v ~%v -%v", ctx, got.Added, got.Updated, got.Removed, added, updated, removed)
					}
					clear(created)
					clear(touched)
					clear(prevLive)
					for k := range recs {
						prevLive[k] = true
					}
					full = false
					check(ctx)
				}

				var chain []*EngineDelta
				var cur *CheckpointCursor
				export := func(ctx string) {
					before := links
					sweep()
					ed, c := eng.ExportDelta(cur)
					if ed.Full {
						chain = nil
					}
					chain, cur = append(chain, ed), &c
					if links != before { // else nothing moved since the last link
						linked(ctx, eng.Snapshot(), before)
					}
				}
				for step := range steps {
					ctx := fmt.Sprintf("step %d", step)
					switch r := rng.Intn(20); {
					case r < 10:
						feed(1 + rng.Intn(12))
						check(ctx + ", after a feed")
					case r < 12:
						now = now.Add(ttl + time.Duration(rng.Intn(30))*time.Minute)
						feed(1 + rng.Intn(12))
						check(ctx + ", after a feed past the TTL")
					case r < 15:
						before := links
						sweep()
						if inv := eng.Snapshot(); links != before {
							linked(ctx+", after a snapshot", inv, before)
						}
					case r < 17:
						export(ctx + ", after an export")
					case r < 18:
						// Export and restore at another shard count; retention
						// set after the import, with the restored records in the
						// write layers or already below them.
						export(ctx + ", after the export before a restore")
						eng = newEngine([]int{1, 2, 8}[rng.Intn(3)])
						for _, ed := range chain {
							if err := eng.ImportDelta(ed); err != nil {
								t.Fatalf("%s: restore: %v", ctx, err)
							}
						}
						chain, cur, full = nil, nil, true
						if rng.Intn(2) == 0 {
							before := links
							linked(ctx+", after a restore's snapshot", eng.Snapshot(), before)
						}
						start(eng)
						check(ctx + ", after a restore")
					default:
						// A second seal with no install in between: the two
						// intervals fold into one sealed map and nothing is lost;
						// the chain then restarts from whole seals.
						sh := eng.shards[rng.Intn(len(eng.shards))]
						sh.mu.Lock()
						sh.disc.seal(false)
						sh.mu.Unlock()
						feed(1 + rng.Intn(12))
						sh.mu.Lock()
						sh.disc.seal(false)
						sh.mu.Unlock()
						check(ctx + ", after two seals with no install")
						eng.snap.invalidate()
						full = true
					}
				}
			})
		}
	}
}
