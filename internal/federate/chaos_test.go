package federate

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"servdisc/internal/faultnet"
)

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
