// chaosproxy is a TCP fault-injection proxy for resilience drills: it
// relays connections to a target while killing the first -kills of them
// mid-stream at seeded random byte offsets (mean -cut-bytes), then passes
// everything after that through clean. Only connections the target
// accepted count: a dial that beat the target to its port is dropped
// without using up a kill. Pointed between cmd/federated and
// a passived -publish port it forces the feed client through its full
// reconnect-and-resume path; the CI chaos smoke asserts the aggregator's
// dump still converges with the unproxied run's.
//
//	chaosproxy -listen 127.0.0.1:9200 -target 127.0.0.1:9100 -seed 1 -kills 3
//
// The schedule is deterministic for a given -seed, so a failing drill
// replays exactly. On SIGINT/SIGTERM it logs how many of the doomed
// connections were actually cut before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"servdisc/internal/faultnet"
	"servdisc/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaosproxy: ")

	// The -cut-bytes default is sized to the wire: a site's feed is ~20 B
	// per resident service to bootstrap and ~27 B per discovery after
	// that, so a few KiB is mid-stream for a small site, where a mean
	// sized for a fatter wire would land past everything but the
	// heartbeats and never fire.
	var (
		listen   = flag.String("listen", "127.0.0.1:9200", "address to accept feed connections on")
		target   = flag.String("target", "", "address to relay to (required)")
		seed     = flag.Uint64("seed", 1, "seed for the kill-offset schedule")
		kills    = flag.Int("kills", 3, "number of leading connections to cut mid-stream (later ones relay clean)")
		cutBytes = flag.Int64("cut-bytes", 4<<10, "mean relayed bytes before a doomed connection is cut")
	)
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "chaosproxy: -target is required")
		flag.Usage()
		os.Exit(2)
	}

	rng := stats.NewRNG(*seed).Derive("chaosproxy")
	plan := func(conn int) (clientSend, serverSend faultnet.Faults) {
		if conn >= *kills {
			log.Printf("conn %d: clean relay", conn)
			return faultnet.Faults{}, faultnet.Faults{}
		}
		// Kill the feed direction (target -> client) mid-stream; the
		// client sees a truncated frame and must resync on redial.
		cut := 1 + int64(rng.Exp(float64(*cutBytes)))
		log.Printf("conn %d: will cut after %d bytes", conn, cut)
		return faultnet.Faults{}, faultnet.Faults{CutAt: cut}
	}

	p, err := faultnet.Listen(*listen, *target, plan)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("relaying %s -> %s (killing first %d connections, seed %d)", p.Addr(), *target, *kills, *seed)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = p.Run(ctx)
	// A cut drawn past the end of a short stream never fires; the drill
	// that launched this proxy checks the tally to know it was a drill.
	log.Printf("cut %d of %d doomed connections mid-stream", p.Cuts(), *kills)
	if err != nil && err != context.Canceled {
		log.Fatal(err)
	}
}
