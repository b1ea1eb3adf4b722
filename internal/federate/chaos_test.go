package federate

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/faultnet"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/stats"
)

// chaosMeanFault is the mean stream offset of each drawn fault (cut,
// corruption, duplication, stall) in the fleet chaos runs. A test site's
// whole feed — snapshot plus every live event — is under 10 KB on the
// wire, so a 4 KiB mean lands most faults inside it while a fair share of
// connections still deliver real progress before dying; a mean sized for
// a bigger stream puts the faults past EOF and the run is a clean link.
const chaosMeanFault = 4 << 10

// chaosDialer builds a FeedClient Dial func that connects to pub through
// a freshly-faulted in-memory link: while *chaos holds, each dial draws a
// new random fault schedule (cuts, corruption, duplication, latency,
// stalls, at mean offset meanFault) for both directions and occasionally
// refuses outright (a partition); once chaos is lifted every new link is
// clean. Each dial serves the publisher end on its own goroutine, exactly
// like an accept loop would. The rng is owned by the client's Run
// goroutine, so no locking is needed around it.
func chaosDialer(ctx context.Context, pub *Publisher, rng *stats.RNG, chaos *atomic.Bool, meanFault int64) func(context.Context) (net.Conn, error) {
	return func(dialCtx context.Context) (net.Conn, error) {
		var toServer, toClient faultnet.Faults
		if chaos.Load() {
			if rng.Bool(0.2) {
				return nil, fmt.Errorf("faultnet: link partitioned")
			}
			toServer = faultnet.Random(rng, meanFault)
			toClient = faultnet.Random(rng, meanFault)
		}
		client, server := faultnet.Pipe(toServer, toClient)
		go func() {
			_ = pub.ServeConn(ctx, server)
			server.Close()
		}()
		return client, nil
	}
}

// TestChaosConvergence is the fleet-resilience property: sites produce
// while every feed link suffers seeded partitions, cuts, corruption,
// duplication and latency; the clients reconnect through jittered
// backoff and delta resume the whole time. After the chaos lifts and the
// sites quiesce, the aggregator's canonical dump must be byte-identical
// to a fault-free run over the same inputs — nothing lost, nothing
// half-applied, nothing double-counted.
func TestChaosConvergence(t *testing.T) {
	const flows = 400
	for _, nSites := range []int{2, 8} {
		// The fault-free reference is seed-independent: compute it once
		// per fleet size.
		want, _ := runScenario(nSites, flows, func(sites []*testSite, agg *Aggregator) {
			for _, s := range sites {
				s.produce()
			}
		})
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("sites=%d/seed=%d", nSites, seed), func(t *testing.T) {
				got, stats := runChaosFleet(t, nSites, flows, seed)
				if string(got) != string(want) {
					t.Errorf("chaos dump diverges from fault-free run:\n%s", firstDiff(got, want))
				}
				var disconnects, resumes, applied uint64
				for _, st := range stats {
					disconnects += st.Disconnects
					resumes += st.ResumeHits
					applied += st.FramesApplied
				}
				// Every feed ends with one disconnect of its own at
				// shutdown; the faults must account for more than that.
				if disconnects <= uint64(nSites) {
					t.Errorf("%d disconnects across %d feeds — the fault schedule never fired", disconnects, nSites)
				}
				if resumes == 0 {
					t.Error("no reconnect resumed by cursor — the faults never interrupted a bootstrapped feed")
				}
				if applied == 0 {
					t.Error("no frames applied through the chaotic links")
				}
			})
		}
	}
}

// runChaosFleet runs one seeded chaos schedule over a fleet of nSites
// and returns the sealed dump plus per-feed client stats.
func runChaosFleet(t *testing.T, nSites, flows int, seed uint64) ([]byte, []FeedStats) {
	t.Helper()
	agg := NewAggregator()
	sites := make([]*testSite, nSites)
	for i := range sites {
		sites[i] = newTestSite(i, flows)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chaos atomic.Bool
	chaos.Store(true)

	clients := make([]*FeedClient, nSites)
	var wg sync.WaitGroup
	for i, s := range sites {
		rng := stats.NewRNG(seed).Derive(fmt.Sprintf("chaos-site-%d", i))
		fc := NewFeedClient(agg, string(s.id), FeedOptions{
			Dial: chaosDialer(ctx, s.pub, rng, &chaos, chaosMeanFault),
			Backoff: BackoffConfig{
				Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond,
				Seed: seed<<8 + uint64(i),
			},
		})
		clients[i] = fc
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fc.Run(ctx)
		}()
	}

	// Produce at all sites concurrently while the links misbehave. Each
	// site lets the aggregator catch up across its chaotic link between
	// batches, so the whole live stream crosses the link under fault —
	// production outrunning the first dial would leave the faults nothing
	// to hit but one bootstrap snapshot.
	var produce sync.WaitGroup
	for _, s := range sites {
		produce.Add(1)
		go func(s *testSite) {
			defer produce.Done()
			s.producePaced(func() {
				if want := s.pub.State().Seq; !awaitCursor(agg, s.id, want) {
					t.Errorf("%s: feed never caught up to seq %d through the chaotic link", s.id, want)
				}
			})
		}(s)
	}
	produce.Wait()

	// Quiesce: lift the faults, end the live streams, and wait for every
	// feed to catch up to its site's final sequence over clean links —
	// the liveness half of the property (reconnect-and-resume actually
	// recovers, not just "the final snapshot papers over it"). The final
	// sequence is read once the publisher has closed, its terminal seal
	// frame sequenced. There is no final catch-up attach: what the
	// feeds applied must already be the whole record, weights included.
	chaos.Store(false)
	for _, s := range sites {
		s.eng.Close()
		s.pub.Close()
	}
	for _, s := range sites {
		waitCursor(t, agg, s.id, s.pub.State().Seq)
	}

	cancel()
	wg.Wait()
	out := make([]FeedStats, nSites)
	for i, fc := range clients {
		out[i] = fc.Stats()
	}
	return agg.Dump(), out
}

// TestChaosNoResurrection drives the retraction lifecycle through
// chaotic links: a service expires while its site's feed is being cut,
// corrupted and replayed, and the retraction must survive every flavor
// of reconnect — no stale snapshot or duplicated delta brings the dead
// service back.
func TestChaosNoResurrection(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, nil, 2)
	eng.SetRetention(core.RetentionPolicy{PassiveTTL: time.Hour})
	pub := NewPublisher("chaos-ret", eng)
	defer pub.Close()
	agg := NewAggregator()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chaos atomic.Bool
	chaos.Store(true)
	rng := stats.NewRNG(99).Derive("chaos-resurrection")
	fc := NewFeedClient(agg, "chaos-ret", FeedOptions{
		// This site's whole stream is ~120 bytes (hello, a two-service
		// snapshot, one seal frame): the faults have to land inside it.
		Dial:    chaosDialer(ctx, pub, rng, &chaos, 64),
		Backoff: BackoffConfig{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond, Seed: 99},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = fc.Run(ctx)
	}()

	bld := packet.NewBuilder(0)
	svcA := testCampus.Base() + netaddr.V4(77) // will expire mid-chaos
	svcB := testCampus.Base() + netaddr.V4(78) // keeps chattering
	keyOfA := core.ServiceKey{Addr: svcA, Proto: packet.ProtoTCP, Port: 80}
	keyOfB := core.ServiceKey{Addr: svcB, Proto: packet.ProtoTCP, Port: 443}
	ext := netaddr.MustParseV4("64.20.0.1")
	answer := func(srv netaddr.V4, port uint16, at time.Time) {
		eng.HandleBatch([]packet.Packet{*bld.SynAck(at, packet.Endpoint{Addr: srv, Port: port},
			packet.Endpoint{Addr: ext, Port: 33000}, 9, 8)})
	}

	answer(svcA, 80, retBase)
	answer(svcB, 443, retBase)
	// svcB chatters past both deadlines; the snapshot expires svcA and
	// sends its retraction into the chaotic stream in a seal frame.
	answer(svcB, 443, retBase.Add(3*time.Hour))
	eng.Snapshot()

	// The chaotic link must churn through several faulted connections
	// with the tombstone in play before quiescing.
	for deadline := time.Now().Add(10 * time.Second); fc.Stats().Disconnects < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d disconnects in 10s — the fault schedule never fired", fc.Stats().Disconnects)
		}
		time.Sleep(time.Millisecond)
	}

	chaos.Store(false)
	eng.Close()
	waitCursor(t, agg, "chaos-ret", pub.State().Seq)
	cancel()
	<-done
	<-agg.Attach(pub)

	if hasLive(agg, keyOfA) {
		t.Fatal("expired service resurrected through chaos reconnects")
	}
	if !hasLive(agg, keyOfB) {
		t.Fatal("live service lost through chaos reconnects")
	}
	if fc.Stats().Connects == 0 {
		t.Fatal("feed never connected")
	}
}

// BenchmarkAggregatorIngestChaos climbs the same fleet-size ladder as
// BenchmarkAggregatorIngest, but every feed crosses an impaired link:
// the full wire path (encode, faultnet latency + bandwidth shaping,
// decode) in front of Apply. The faults are non-lossy — jitter and
// throughput caps, no cuts — so every frame still arrives and the
// measured cost is ingest-under-impairment, not retry logic.
func BenchmarkAggregatorIngestChaos(b *testing.B) {
	for _, rung := range ingestLadder {
		if rung.sites < 16 {
			continue // the chaos ladder is about fleet scale
		}
		b.Run(fmt.Sprintf("sites=%d", rung.sites), func(b *testing.B) {
			feeds := benchFeeds(rung.sites, rung.events)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg := NewAggregator()
				var wg sync.WaitGroup
				for s := range feeds {
					send, recv := faultnet.Pipe(faultnet.Faults{
						Latency:     10 * time.Microsecond,
						BytesPerSec: 64 << 20,
					}, faultnet.Faults{})
					wg.Add(1)
					go func(frames []Frame, w net.Conn) {
						defer w.Close()
						enc := NewEncoder(w)
						for j := range frames {
							if err := enc.Encode(&frames[j]); err != nil {
								return
							}
						}
					}(feeds[s], send)
					go func(r net.Conn) {
						defer wg.Done()
						defer r.Close()
						dec := NewDecoder(r)
						for {
							f, err := dec.Decode()
							if err != nil {
								return
							}
							_ = agg.Apply(f)
						}
					}(recv)
				}
				wg.Wait()
			}
			b.StopTimer()
			total := float64(rung.events*rung.sites) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
		})
	}
}
