package servdisc_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"servdisc"
	"servdisc/internal/netaddr"
)

// ExampleDiscover replays a recorded pcap trace through the sharded
// passive pipeline and prints the discovered inventory.
func ExampleDiscover() {
	f, err := os.Open("border.pcap")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	inv, err := servdisc.Discover(context.Background(), f, servdisc.Config{
		Campus: "128.125.0.0/16",
		Shards: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, key := range inv.Keys() {
		rec, _ := inv.Record(key)
		fmt.Printf("%v first seen %v (%d flows)\n", key, rec.FirstSeen(), rec.Flows)
	}
}

// ExampleNewPipeline assembles the live passive-monitoring pipeline and
// feeds it packet batches from a capture loop.
func ExampleNewPipeline() {
	pl, err := servdisc.NewPipeline(servdisc.Config{
		Campus: "128.125.0.0/16",
		Shards: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	pl.Run(context.Background())
	defer pl.Close()

	// Feed batches from your capture source: pl.HandleBatch(batch).
	// Then freeze the result:
	inv := pl.Snapshot()
	fmt.Println(inv.Len(), "services,", len(inv.Scanners()), "scanners detected")
}

// ExamplePipeline_RunScans runs both discovery techniques at once: live
// passive monitoring plus a 15 probes/second scan sweep every 12 hours,
// reconciled into one inventory with per-service provenance.
func ExamplePipeline_RunScans() {
	targets := netaddr.MustParsePrefix("128.125.1.0/24").Addrs()
	h, err := servdisc.NewPipeline(servdisc.Config{
		Campus: "128.125.0.0/16",
		Scan: &servdisc.ScanOptions{
			Targets:  targets,
			Rate:     15, // the paper's gentle sweep budget
			Workers:  32,
			Interval: 12 * time.Hour,
			Sweeps:   2,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	h.Run(ctx)
	go func() {
		if err := h.RunScans(ctx); err != nil {
			log.Print(err)
		}
	}()
	// ... feed h.HandleBatch from the capture loop, then:
	h.Close()
	inv := h.Snapshot()
	counts := inv.ProvenanceCounts()
	for p, n := range counts {
		fmt.Printf("%v: %d services\n", servdisc.Provenance(p), n)
	}
}
