package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// TraceKind identifies what a flight-recorder event describes.
type TraceKind uint8

const (
	TraceBatchDispatched TraceKind = iota
	TraceSnapshotSealed
	TraceCheckpointCut
	TraceCheckpointRestored
	TraceFeedConnected
	TraceFeedDisconnected
	TraceSweepCompleted
	traceKinds
)

// traceMeta names each kind and its two payload fields for the dump.
var traceMeta = [traceKinds]struct{ name, a, b string }{
	TraceBatchDispatched:    {"batch-dispatched", "pkts", "batches"},
	TraceSnapshotSealed:     {"snapshot-sealed", "services", "us"},
	TraceCheckpointCut:      {"checkpoint-cut", "bytes", "us"},
	TraceCheckpointRestored: {"checkpoint-restored", "services", "us"},
	TraceFeedConnected:      {"feed-connected", "attempt", ""},
	TraceFeedDisconnected:   {"feed-disconnected", "drops", ""},
	TraceSweepCompleted:     {"sweep-completed", "probes", "us"},
}

// BatchSample is the dispatch sampling interval: recording every batch
// at ~1M pkts/s would wrap the ring in milliseconds, so callers record
// one batch-dispatched event per BatchSample dispatches.
const BatchSample = 64

// flightDefaultPerStripe sizes each stripe's ring; total capacity is
// perStripe × stripes (≈1–4k events — minutes of history at steady
// state, seconds around an incident, which is the window that matters).
const flightDefaultPerStripe = 256

// traceRec is one fixed-size event. tag carries an identity string
// (feed address, checkpoint kind); callers pass pre-existing strings so
// recording stays allocation-free.
type traceRec struct {
	at   int64 // UnixNano
	kind TraceKind
	tag  string
	a, b int64
}

type flightStripe struct {
	mu  sync.Mutex
	pos uint64
	buf []traceRec
	_   [24]byte
}

// Recorder is an always-on, fixed-size ring of recent trace events,
// striped to keep recording off any shared lock. Each stripe is guarded
// by its own mutex — uncontended in steady state (stripe choice hashes
// the caller's stack address) and, unlike a racy lock-free ring, clean
// under the race detector that CI runs over every instrumented package.
type Recorder struct {
	stripes []flightStripe
	mask    uintptr
}

// NewRecorder returns a recorder holding perStripe events per stripe
// (stripe count scales with GOMAXPROCS, capped at 8).
func NewRecorder(perStripe int) *Recorder {
	if perStripe <= 0 {
		perStripe = flightDefaultPerStripe
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	p := 1
	for p < n {
		p <<= 1
	}
	r := &Recorder{stripes: make([]flightStripe, p), mask: uintptr(p - 1)}
	for i := range r.stripes {
		r.stripes[i].buf = make([]traceRec, perStripe)
	}
	return r
}

// Record appends one event, overwriting the oldest when the stripe ring
// is full. Zero-alloc (tag must be a pre-existing string); nil-safe.
func (r *Recorder) Record(kind TraceKind, tag string, a, b int64) {
	if r == nil {
		return
	}
	var probe byte
	s := &r.stripes[(uintptr(unsafe.Pointer(&probe))>>10)&r.mask]
	now := time.Now().UnixNano()
	s.mu.Lock()
	s.buf[s.pos&uint64(len(s.buf)-1)] = traceRec{at: now, kind: kind, tag: tag, a: a, b: b}
	s.pos++
	s.mu.Unlock()
}

// Event is one decoded flight-recorder entry.
type Event struct {
	At   time.Time
	Kind TraceKind
	Tag  string
	A, B int64
}

// Events returns the recorded history, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		n := s.pos
		cap64 := uint64(len(s.buf))
		start := uint64(0)
		if n > cap64 {
			start = n - cap64
		}
		for j := start; j < n; j++ {
			rec := s.buf[j&(cap64-1)]
			out = append(out, Event{At: time.Unix(0, rec.at), Kind: rec.kind, Tag: rec.tag, A: rec.a, B: rec.b})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Dump writes the merged history as text, oldest first — the
// /debug/flight and SIGQUIT payload.
func (r *Recorder) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	events := r.Events()
	fmt.Fprintf(bw, "flight recorder: %d events\n", len(events))
	for _, e := range events {
		m := traceMeta[e.Kind]
		fmt.Fprintf(bw, "%s %s", e.At.UTC().Format("2006-01-02T15:04:05.000000Z"), m.name)
		if e.Tag != "" {
			fmt.Fprintf(bw, " tag=%s", e.Tag)
		}
		if m.a != "" {
			fmt.Fprintf(bw, " %s=%d", m.a, e.A)
		}
		if m.b != "" {
			fmt.Fprintf(bw, " %s=%d", m.b, e.B)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Handler serves the flight-recorder dump — mount at /debug/flight.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.Dump(w)
	})
}

// DumpOnSIGQUIT installs a handler that writes the flight history to
// stderr whenever the process receives SIGQUIT (kill -QUIT <pid>), then
// keeps running — the classic in-flight "what just happened" probe.
// The goroutine runs for the life of the process.
func (r *Recorder) DumpOnSIGQUIT() {
	if r == nil {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			fmt.Fprintln(os.Stderr, "--- SIGQUIT flight dump ---")
			r.Dump(os.Stderr)
		}
	}()
}
