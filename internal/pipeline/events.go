package pipeline

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Hub is the pipeline's publish/subscribe stage: a bounded, drop-counting
// fanout of typed events to any number of subscribers. Where BatchSink
// carries the packet stream itself, a Hub carries what the engine *learned*
// from the stream (discoveries, detections, sweep completions) to live
// consumers — dashboards, alerting, coverage trackers.
//
// The contract is deliberately asymmetric: publishers never block. Each
// subscriber owns a buffered channel; an event that does not fit a
// subscriber's buffer is dropped for that subscriber and counted (per
// subscriber via Sub.Dropped, in aggregate via Counters). A slow consumer
// therefore loses events rather than stalling ingest — the same posture as
// a kernel packet ring. Consumers that must not miss anything size their
// buffer for their worst-case lag, fall back to polling snapshots, or, if
// their work per event is short and never waits, subscribe synchronously
// (SubscribeSync) and run it on the publishing goroutine.
//
// Publish may be called from any number of goroutines (the sharded
// discoverer's workers all publish into one hub). Close closes every
// subscriber channel; subscribing to a closed hub yields an already-closed
// channel.
type Hub[T any] struct {
	mu       sync.RWMutex
	subs     []*Sub[T]
	closed   bool
	counters StageCounters
}

// NewHub builds an empty hub.
func NewHub[T any]() *Hub[T] { return &Hub[T]{} }

// Counters exposes the hub's flow counters: In counts events published,
// Out per-subscriber deliveries, Dropped per-subscriber drops. Safe for
// concurrent readers at any time.
func (h *Hub[T]) Counters() *StageCounters { return &h.counters }

// Subscribe registers a subscriber whose channel buffers up to buf events
// (buf < 1 is clamped to 1). On a closed hub the returned subscription's
// channel is already closed.
func (h *Hub[T]) Subscribe(buf int) *Sub[T] { return h.SubscribeFunc(buf, nil) }

// SubscribeFunc registers a subscriber that receives only events passing
// keep (nil keeps everything — equivalent to Subscribe). The predicate is
// pushed down into Publish: an event keep rejects is never offered to the
// subscriber's channel and never counts against its drop budget, so a
// narrow subscriber on a firehose hub pays (and risks losing) only its own
// slice of the stream. keep runs on the publisher's goroutine for every
// published event — it must be fast, non-blocking, and safe for concurrent
// calls.
func (h *Hub[T]) SubscribeFunc(buf int, keep func(T) bool) *Sub[T] {
	return h.add(&Sub[T]{ch: make(chan T, max(buf, 1)), keep: keep})
}

// SubscribeSync registers a synchronous subscriber: Publish calls fn with
// each event on the publishing goroutine, under the hub's read lock, so fn
// never misses an event and sees each publisher's events in the order it
// published them. fn must not block, and must not publish into, subscribe
// to or cancel on this hub. The subscription's Events channel carries
// nothing and closes when it ends; Done and Cancel work as for any Sub, and
// once Cancel returns fn is not called again.
func (h *Hub[T]) SubscribeSync(fn func(T)) *Sub[T] {
	return h.add(&Sub[T]{ch: make(chan T), fn: fn})
}

// add attaches s, or ends it at once on a closed hub.
func (h *Hub[T]) add(s *Sub[T]) *Sub[T] {
	s.hub, s.done = h, make(chan struct{})
	h.mu.Lock()
	if h.closed {
		close(s.ch)
		close(s.done)
	} else {
		h.subs = append(h.subs, s)
	}
	h.mu.Unlock()
	return s
}

// Publish offers ev to every subscriber whose filter passes it, never
// blocking: synchronous subscribers are called with it, channel
// subscribers with buffer room receive it, the rest drop it (counted).
// Events rejected by a subscriber's filter are counted as filtered for
// that subscriber, not dropped. Publishing to a closed hub is a no-op.
func (h *Hub[T]) Publish(ev T) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return
	}
	h.counters.AddIn(1)
	for _, s := range h.subs {
		if s.keep != nil && !s.keep(ev) {
			s.filtered.Add(1)
			continue
		}
		if s.fn != nil {
			s.fn(ev)
			h.counters.AddOut(1)
			continue
		}
		select {
		case s.ch <- ev:
			h.counters.AddOut(1)
		default:
			s.dropped.Add(1)
			h.counters.AddDropped(1)
		}
	}
}

// Close closes every subscriber channel (after they drain their buffered
// events, consumers observe end-of-stream). Idempotent.
func (h *Hub[T]) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, s := range h.subs {
		close(s.ch)
		close(s.done)
	}
	h.subs = nil
}

// Sub is one subscription to a Hub.
type Sub[T any] struct {
	hub      *Hub[T]
	ch       chan T
	done     chan struct{}
	keep     func(T) bool
	fn       func(T) // set on a synchronous subscription (SubscribeSync)
	dropped  atomic.Int64
	filtered atomic.Int64
}

// Events returns the subscription's receive channel. It is closed when the
// hub closes or the subscription is cancelled; buffered events remain
// readable after either.
func (s *Sub[T]) Events() <-chan T { return s.ch }

// Done is closed when the subscription ends (hub close or Cancel) — a
// select-friendly end-of-stream signal for goroutines that are not the
// channel's reader.
func (s *Sub[T]) Done() <-chan struct{} { return s.done }

// Dropped returns how many events this subscriber missed because its
// buffer was full. Filter-rejected events never count here — the drop
// budget covers only events the subscriber asked for. Safe for concurrent
// readers.
func (s *Sub[T]) Dropped() int { return int(s.dropped.Load()) }

// Filtered returns how many published events this subscriber's filter
// rejected (always 0 for unfiltered subscriptions). Safe for concurrent
// readers.
func (s *Sub[T]) Filtered() int { return int(s.filtered.Load()) }

// Cancel unsubscribes and closes the channel. Idempotent, and a no-op
// after the hub itself has closed.
func (s *Sub[T]) Cancel() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for i, x := range h.subs {
		if x == s {
			h.subs = slices.Delete(h.subs, i, i+1) // zeroes the vacated tail slot, which would pin the channel
			close(s.ch)
			close(s.done)
			return
		}
	}
}
