// Package pipeline defines the streaming ingest contract the discovery
// system is built on: packets flow through the system in batches, not one
// virtual call per packet.
//
// The batch is the unit of work everywhere — capture taps, trace replay,
// the traffic generator and the sharded passive discoverer all produce or
// consume []packet.Packet. A batch is only valid for the duration of the
// HandleBatch call: producers reuse their buffers, so a sink that needs to
// keep packets must copy them.
//
// Two pieces compose batch flow: Fanout duplicates a batch across several
// sinks, and StageCounters is the concurrency-safe In/Out/Dropped tally a
// filtering step (capture.Tap, capture.Monitor, the sharded discoverer)
// keeps. A single packet is a one-element batch; nothing here runs a
// goroutine — concurrency belongs to the sinks (core.ShardedPassive).
package pipeline

import (
	"sync/atomic"

	"servdisc/internal/packet"
)

// DefaultBatchSize is the batch granularity used when a caller does not
// specify one. Big enough to amortize call overhead, small enough that a
// batch of decoded packets (~240 B each) stays within L1 while the batch
// makes several passes through monitor, tap, and discoverer stages —
// measured on BenchmarkIngestBatched, 64 beats both 32 and 256.
const DefaultBatchSize = 64

// BatchSink consumes packet batches. The batch (and the packets inside it)
// is only valid until HandleBatch returns; retain copies, not the slice.
type BatchSink interface {
	HandleBatch(batch []packet.Packet)
}

// BatchFunc adapts a function to BatchSink.
type BatchFunc func(batch []packet.Packet)

// HandleBatch implements BatchSink.
func (f BatchFunc) HandleBatch(batch []packet.Packet) { f(batch) }

// StageCounters tallies batch flow through one stage. All methods are safe
// under concurrent writers and readers, so live monitoring (an HTTP stats
// endpoint, a progress printer) can read them while workers ingest.
type StageCounters struct {
	in, out, dropped atomic.Int64
}

// AddIn records n packets entering the stage.
func (c *StageCounters) AddIn(n int) { c.in.Add(int64(n)) }

// AddOut records n packets leaving the stage.
func (c *StageCounters) AddOut(n int) { c.out.Add(int64(n)) }

// AddDropped records n packets discarded by the stage.
func (c *StageCounters) AddDropped(n int) { c.dropped.Add(int64(n)) }

// In returns the packets that entered the stage.
func (c *StageCounters) In() int { return int(c.in.Load()) }

// Out returns the packets the stage passed downstream.
func (c *StageCounters) Out() int { return int(c.out.Load()) }

// Dropped returns the packets the stage discarded.
func (c *StageCounters) Dropped() int { return int(c.dropped.Load()) }

// Fanout duplicates each batch to several sinks, in order. Nil entries are
// skipped. Sinks must treat the batch as read-only: they all observe the
// same slice.
type Fanout []BatchSink

// HandleBatch implements BatchSink.
func (f Fanout) HandleBatch(batch []packet.Packet) {
	for _, s := range f {
		if s != nil {
			s.HandleBatch(batch)
		}
	}
}

var (
	_ BatchSink = BatchFunc(nil)
	_ BatchSink = Fanout(nil)
)
