package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/query"
)

const (
	// churnPerEpoch is how many resident services the producer re-observes
	// before each snapshot. It is capped at a quarter of the inventory: a
	// shard that sees more than half its records move seals without a
	// delta, and the stage is about the delta path.
	churnPerEpoch = 2000
	// epochEvery is the producer's fixed cadence: 10 Hz.
	epochEvery = 100 * time.Millisecond
	// The reader's fixed mix, per round of 20 queries.
	pointsPerRound  = 17
	queriesPerRound = pointsPerRound + 3
	portPageLimit   = 100
	prefixPageLimit = 1000
	provPageLimit   = 100
)

// pageQuery is one paged query of the mix and the hit count a correct
// index must return for it, worked out from the resident key set.
type pageQuery struct {
	q    query.Query
	want int
}

// serveStage is the read-beside-write system under test: a resident
// inventory in a two-shard engine, a query catalog fed from its snapshot
// deltas, a producer that keeps the index epoch advancing and one reader.
type serveStage struct {
	c      *corpus
	engine *core.ShardedPassive
	index  *indexObserver
	keys   []core.ServiceKey

	churn  []packet.Packet
	points []query.Query // scattered point lookups, walked cyclically
	ports  []pageQuery
	blocks []pageQuery // /24 pages
	prov   pageQuery

	heapPerService float64
}

// newServeStage replays the corpus into a fresh engine, freezes the first
// snapshot (which builds the index) and prepares the churn set and the
// query mix. The heap cost per resident service is the live-heap growth
// across all of that.
func newServeStage(c *corpus, seed uint64) (*serveStage, error) {
	var m0, m1 runtime.MemStats
	liveHeap(&m0)

	s := &serveStage{
		c:      c,
		engine: core.NewShardedPassive(c.prefix, campus.SelectedUDPPorts, engineShards),
		index:  &indexObserver{cat: query.NewCatalog(0)},
	}
	s.engine.OnSnapshot(s.index.observe)
	if _, _, err := c.replay(nil, func(batch []packet.Packet, _ int) { s.engine.HandleBatch(batch) }); err != nil {
		return nil, err
	}
	inv := s.engine.Snapshot()
	s.keys = inv.Keys()
	if s.index.cat.Len() != len(s.keys) || len(s.keys) == 0 {
		return nil, fmt.Errorf("index holds %d services, inventory %d", s.index.cat.Len(), len(s.keys))
	}

	liveHeap(&m1)
	s.heapPerService = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(s.keys))

	rng := rand.New(rand.NewSource(int64(seed)))
	s.planChurn(rng)
	s.planQueries(rng, inv)
	return s, nil
}

// liveHeap reads the heap after two collections: the second reclaims what
// finalizers and the first cycle's sweep released.
func liveHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// planChurn picks the services the producer re-observes each epoch and
// prebuilds their accept responses; retime moves them past the engine's
// watermark each round.
func (s *serveStage) planChurn(rng *rand.Rand) {
	n := min(churnPerEpoch, len(s.keys)/4)
	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.2"), Port: 41000}
	for _, i := range rng.Perm(len(s.keys)) {
		if len(s.churn) == n {
			break
		}
		k := s.keys[i]
		if k.Proto != packet.ProtoTCP {
			continue
		}
		s.churn = append(s.churn, *bld.SynAck(time.Time{}, packet.Endpoint{Addr: k.Addr, Port: k.Port}, client, 7, 7))
	}
}

// planQueries fixes the mix's parameters — scattered point keys, the
// busiest ports, scattered /24 blocks, one provenance class — and the hit
// count each page must return.
func (s *serveStage) planQueries(rng *rand.Rand, inv *core.Inventory) {
	perPort := make(map[uint16]int)
	perBlock := make(map[netaddr.V4]int)
	for _, k := range s.keys {
		perPort[k.Port]++
		perBlock[k.Addr&^0xff]++
	}
	for i := 0; i < 1<<14; i++ {
		s.points = append(s.points, pointQuery(s.keys[rng.Intn(len(s.keys))]))
	}

	ports := make([]uint16, 0, len(perPort))
	for p := range perPort {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool {
		if perPort[ports[i]] != perPort[ports[j]] {
			return perPort[ports[i]] > perPort[ports[j]]
		}
		return ports[i] < ports[j]
	})
	for _, p := range ports[:min(4, len(ports))] {
		s.ports = append(s.ports, pageQuery{query.Query{Port: p, Limit: portPageLimit}, min(portPageLimit, perPort[p])})
	}

	blocks := make([]netaddr.V4, 0, len(perBlock))
	for b := range perBlock {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	for _, b := range blocks[:min(64, len(blocks))] {
		p24, _ := netaddr.NewPrefix(b, 24)
		s.blocks = append(s.blocks, pageQuery{query.Query{Prefix: p24, Limit: prefixPageLimit}, min(prefixPageLimit, perBlock[b])})
	}

	s.prov = pageQuery{
		query.Query{Provenance: core.PassiveOnly, HasProvenance: true, Limit: provPageLimit},
		min(provPageLimit, inv.ProvenanceCounts()[core.PassiveOnly]),
	}
}

// serveResult is what the stage measured.
type serveResult struct {
	resident    int
	roundsAt    []time.Duration // completion time of each round of the mix
	epochMs     []float64       // producer tick: re-observations + Snapshot
	epochs      int
	churned     int
	attempted   int
	failed      int
	firstFailed string
}

// run starts the producer and drives the reader's closed loop for the
// window. With a tracer, the reader's and the producer's calls are
// recorded on a tracer each and merged.
func (s *serveStage) run(window time.Duration, tr *tracer) serveResult {
	res := serveResult{resident: len(s.keys)}
	ptr := tr.fork()
	s.index.tr = ptr
	patches0, churned0 := s.index.patches, s.index.churned

	stop := make(chan struct{})
	var producing sync.WaitGroup
	producing.Add(1)
	go func() {
		defer producing.Done()
		tick := time.NewTicker(epochEvery)
		defer tick.Stop()
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			at := s.c.epoch.Add(time.Duration(round) * time.Second)
			for j := range s.churn {
				s.churn[j].Timestamp = at.Add(time.Duration(j) * time.Microsecond)
			}
			ptr.begin("core.dispatch_apply")
			for off := 0; off < len(s.churn); off += batchSize {
				s.engine.HandleBatch(s.churn[off:min(off+batchSize, len(s.churn))])
			}
			ptr.end()
			ptr.begin("core.seal_merge")
			s.engine.Snapshot()
			ptr.end()
			res.epochMs = append(res.epochMs, ms(time.Since(t0)))
		}
	}()

	fail := func(format string, args ...any) {
		res.failed++
		if res.firstFailed == "" {
			res.firstFailed = fmt.Sprintf(format, args...)
		}
	}
	page := func(span string, pq pageQuery) {
		tr.begin(span)
		got, err := s.index.cat.Epoch().Query(pq.q)
		tr.end()
		if err != nil || len(got.Hits) != pq.want {
			fail("%s %+v returned %d hits (%v), want %d", span, pq.q, len(got.Hits), err, pq.want)
		}
	}
	start := time.Now()
	for round := 0; time.Since(start) < window; round++ {
		tr.begin("query.point")
		for i := 0; i < pointsPerRound; i++ {
			q := s.points[(round*pointsPerRound+i)%len(s.points)]
			got, err := s.index.cat.Epoch().Query(q)
			if err != nil || len(got.Hits) != 1 {
				fail("point lookup %s missed a resident service (%v)", q.Prefix, err)
			}
		}
		tr.end()
		page("query.port_page", s.ports[round%len(s.ports)])
		page("query.prefix24_page", s.blocks[round%len(s.blocks)])
		page("query.provenance_page", s.prov)
		res.roundsAt = append(res.roundsAt, time.Since(start))
	}
	close(stop)
	producing.Wait()
	tr.merge(ptr)
	s.index.tr = nil

	res.attempted = len(res.roundsAt) * queriesPerRound
	res.epochs = s.index.patches - patches0
	res.churned = s.index.churned - churned0
	return res
}

// queryRates turns round completion times into queries/s per window.
func (r *serveResult) queryRates(window time.Duration) []float64 {
	rates := windowRates(r.roundsAt, window/throughputWindows)
	for i := range rates {
		rates[i] *= queriesPerRound
	}
	return rates
}
