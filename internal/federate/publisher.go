package federate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/obs"
	"servdisc/internal/pipeline"
)

// PublisherMetrics is the publisher's optional telemetry bundle.
type PublisherMetrics struct {
	// Encode observes the wire-encode time of every frame served to any
	// reader; the last frame of a burst also carries the burst's write.
	Encode *obs.Histogram
}

// Engine is the slice of a discovery engine the publisher needs: a
// snapshot — every freeze retires the same expiries whoever takes it (see
// core.ShardedPassive.Snapshot), so serving readers never changes what the
// site announces or holds — a synchronous subscription to the typed event
// stream (see event), and the snapshot observer slot (the publisher takes
// it; see observe). core.ShardedPassive (hybrid or not) and the servdisc
// facade Pipeline both satisfy it.
type Engine interface {
	Snapshot() *core.Inventory
	SubscribeSync(fn func(core.Event)) *core.EventSub
	OnSnapshot(fn func(prev, inv *core.Inventory, delta core.SnapshotDelta))
}

// feedBuffer sizes each reader's frame subscription: deep enough to absorb
// a slow network writer for several seconds at realistic discovery rates.
// A reader that overflows it is served no further (see ServeConn).
const feedBuffer = 1 << 13

// writeDeadliner is the slice of net.Conn ServeConn uses to bound writes.
type writeDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// writeTimeout bounds each write (one burst of frames) on a
// deadline-capable connection: a peer that stops reading is evicted within
// it.
const writeTimeout = time.Minute

// readDeadliner is the slice of net.Conn ServeConn uses to bound the wait
// for the client's resume hello.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// PublisherOptions tunes the serving side of a publisher. The zero value
// picks the defaults noted on each field.
type PublisherOptions struct {
	// Heartbeat is the keepalive interval on a quiet feed. Zero means
	// 10s; negative disables heartbeats.
	Heartbeat time.Duration
	// HelloTimeout bounds the wait for a connecting reader's resume
	// hello. Zero means 10s.
	HelloTimeout time.Duration
	// AuthToken, when non-empty, must match the Token field of every
	// resume hello; a wrong or missing token is a clean close before any
	// frame is served. Write-only readers (io.Writer without io.Reader)
	// cannot authenticate and are refused outright.
	AuthToken string
}

func (o PublisherOptions) withDefaults() PublisherOptions {
	if o.Heartbeat == 0 {
		o.Heartbeat = 10 * time.Second
	}
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = 10 * time.Second
	}
	return o
}

// PublisherStats counts the serving side's resilience events, for the
// daemon metrics surface. All fields are totals since publisher start.
type PublisherStats struct {
	// ResumeHits counts connections whose cursor was honored with a
	// snapshot of the keys changed past it; SnapshotFallbacks counts
	// connections that needed the full snapshot bootstrap (first connect,
	// epoch change, a cursor outside this publisher's stream).
	ResumeHits        uint64
	SnapshotFallbacks uint64
	// AuthFailures counts connections closed over a wrong or missing
	// token; HellosRejected counts malformed or timed-out client hellos.
	AuthFailures   uint64
	HellosRejected uint64
	// Evictions counts connections ended on a frame-write deadline or at
	// the first frame their queue dropped — readers too slow to keep up
	// with the feed.
	Evictions uint64
	// HeartbeatsSent counts keepalive frames written across all readers.
	HeartbeatsSent uint64
}

// Publisher tags one engine's discovery stream with a SiteID and serves it
// to any number of readers, each bootstrapped with a frozen snapshot — or,
// when the reader presents a resume cursor of this stream, with a snapshot
// of just the keys that changed past that cursor.
//
// The catch-up contract: a reader always receives one FrameHello, then one
// FrameSnapshot whose Seq is the generation g it covers (every frame with
// sequence <= g is already reflected in it), then live frames. When the
// reader's resume cursor was honored (hello.Resumed) the snapshot holds
// the rows and retractions of the keys changed past the cursor; otherwise
// it holds the whole inventory. Either way a reconnecting aggregator that
// remembers its high-water sequence skips duplicates by generation and
// never double-counts.
//
// Seal frames carry a site's state; event frames only deliver discoveries
// sooner. Delivery to readers is bounded (pipeline.Hub semantics): a
// reader that cannot keep up is disconnected at its first lost frame
// rather than stalling the others, and resumes on its next connection.
type Publisher struct {
	site SiteID
	// epoch identifies this publisher incarnation; sequence numbers are
	// only meaningful within it (see Frame.Epoch).
	epoch uint64
	eng   Engine
	hub   *pipeline.Hub[Frame]
	sub   *core.EventSub
	done  chan struct{}
	opt   PublisherOptions

	// mu is the feed's one sequencing point: every frame is stamped and
	// published under it, on the goroutine that publishes the engine event
	// or builds the snapshot it stems from, so frame order on every
	// reader's subscription is the site's canonical stream order. seq is
	// written under mu and read without it. sealedAt, under mu, maps every
	// key a seal changed to the Seq of the seal frame that carried it, so
	// a key changed past a resume's cursor maps past it.
	//
	// Lock order. The event path: shard lock → event-hub read lock → mu →
	// frame-hub read lock. The snapshot path: engine snapshot lock → mu.
	// Nothing under mu calls into the engine, so catchup takes no engine
	// snapshot while it holds mu.
	mu       sync.Mutex
	seq      atomic.Uint64
	sealedAt core.Tree[core.ServiceKey, uint64]

	resumeHits, snapshotFallbacks, authFailures,
	hellosRejected, evictions, heartbeats atomic.Uint64

	// met is the optional telemetry bundle (see SetMetrics).
	met *PublisherMetrics
}

// SetMetrics attaches the telemetry bundle; call before Serve/ServeConn.
func (p *Publisher) SetMetrics(m *PublisherMetrics) { p.met = m }

// Stats reports the serving side's resilience counters.
func (p *Publisher) Stats() PublisherStats {
	return PublisherStats{
		ResumeHits:        p.resumeHits.Load(),
		SnapshotFallbacks: p.snapshotFallbacks.Load(),
		AuthFailures:      p.authFailures.Load(),
		HellosRejected:    p.hellosRejected.Load(),
		Evictions:         p.evictions.Load(),
		HeartbeatsSent:    p.heartbeats.Load(),
	}
}

// NewPublisher starts publishing the engine's stream under the given site
// identity, with default options. The publisher subscribes to the engine
// immediately; close the engine (or Close the publisher) to end the feed.
func NewPublisher(site SiteID, eng Engine) *Publisher {
	return NewPublisherOpts(site, eng, PublisherOptions{})
}

// PublisherState is the publisher's stream cursor: which (epoch, seq)
// position its feed has reached.
type PublisherState struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// NewPublisherOpts starts a publisher with the given serving options.
// Every publisher opens its own epoch, a restored site's too: a reader
// may already hold sequence numbers the site's previous incarnation
// issued past its last checkpoint, so numbering from a stored cursor would
// reuse them. A reader across a restart takes one full snapshot instead
// (the aggregator resets its cursor at the first frame of a new epoch).
func NewPublisherOpts(site SiteID, eng Engine, opt PublisherOptions) *Publisher {
	p := &Publisher{
		site:  site,
		epoch: uint64(time.Now().UnixNano()),
		eng:   eng,
		hub:   pipeline.NewHub[Frame](),
		done:  make(chan struct{}),
		opt:   opt.withDefaults(),
	}
	// Observing before subscribing: every event sequenced lands in a seal
	// that observe sees.
	eng.OnSnapshot(p.observe)
	p.sub = eng.SubscribeSync(p.event)
	go p.finish()
	return p
}

// State reports the stream cursor at this instant.
func (p *Publisher) State() PublisherState {
	return PublisherState{Epoch: p.epoch, Seq: p.seq.Load()}
}

// Site returns the publisher's site identity.
func (p *Publisher) Site() SiteID { return p.site }

// emit stamps f with the stream's next sequence number and publishes it to
// every reader. The caller holds mu.
func (p *Publisher) emit(f Frame) {
	f.V, f.Site, f.Epoch, f.Seq = WireVersion, p.site, p.epoch, p.seq.Add(1)
	p.hub.Publish(f)
}

// event is the publisher's synchronous engine subscriber: it sequences one
// engine event on the goroutine that published it, under that goroutine's
// engine lock (see mu's lock order), so the feed is exact the moment the
// engine call returns. An expiry is not shipped: the seal frame of the
// snapshot that retired the service carries its retraction.
func (p *Publisher) event(ev core.Event) {
	if ev.Kind == core.EventServiceExpired {
		return
	}
	p.mu.Lock()
	p.emit(Frame{Type: FrameEvent, Event: &ev})
	p.mu.Unlock()
}

// observe is the publisher's snapshot observer: it runs under the engine's
// snapshot lock once per link of the snapshot chain, in chain order. It
// lists the keys the link changed — listed, or with a tombstone new or
// moved — and builds their seal body outside mu, in O(delta). Under mu it
// then ships the seal frame and files those keys in sealedAt at that
// frame's Seq. The events the link froze were sequenced under their
// publishers' engine locks before the freeze, so they precede the frame,
// and an expiry's retraction rides the frame itself. A link with no
// predecessor (the chain's first, or the first after a restore) lists no
// keys: readers bootstrap from snapshots of this chain, so they hold what
// it would list.
func (p *Publisher) observe(prev, inv *core.Inventory, d core.SnapshotDelta) {
	var keys []core.ServiceKey
	var body *Snapshot
	if prev != nil {
		keys = slices.Concat(d.Added, d.Updated, d.Removed)
		inv.EachTombstoneSince(prev, func(k core.ServiceKey, _ time.Time, _ core.Provenance) { keys = append(keys, k) })
		core.SortKeys(keys)
		keys = slices.Compact(keys)
		body = buildSeal(prev, inv, keys)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// With no frame to ship, at is a later frame's, past every cursor: a
	// resume still carries the keys.
	at := p.seq.Load() + 1
	edits := make([]core.TreeEdit[core.ServiceKey, uint64], len(keys))
	for i, k := range keys {
		edits[i] = core.TreeEdit[core.ServiceKey, uint64]{Key: k, Val: at}
	}
	p.sealedAt = p.sealedAt.Patch(edits, nil)
	select {
	case <-p.done: // the feed has ended
	default:
		if body != nil {
			p.emit(Frame{Type: FrameSeal, Snapshot: body})
		}
	}
}

// finish waits for the event stream to end — the engine closed, or Close
// cancelled the subscription — and then freezes one last snapshot, whose
// seal frame ships what the events left out, before it ends every reader's
// feed. Its expiries are the ones the engine's next touch of each key would
// decide, so a site killed past its last checkpoint ships no retraction its
// restored engine will not decide too.
func (p *Publisher) finish() {
	<-p.sub.Done()
	p.eng.Snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hub.Close()
	close(p.done)
}

// Dropped returns how many engine events the publisher itself missed. It
// reads 0: the publisher's engine subscription is synchronous, so no event
// can be lost before it is sequenced.
func (p *Publisher) Dropped() int { return p.sub.Dropped() }

// FrameCounters exposes the fanout's flow counters: In counts frames
// published, Out per-reader deliveries, Dropped per-reader drops.
func (p *Publisher) FrameCounters() *pipeline.StageCounters { return p.hub.Counters() }

// Close stops sequencing the engine's events and ends every reader's feed,
// after the frames already queued and the last seal frame drain. The
// engine itself is only snapshotted. Idempotent; closing the engine has
// the same effect.
func (p *Publisher) Close() {
	p.sub.Cancel()
	<-p.done
}

// Catchup opens one reader's view of the feed: the hello and snapshot
// frames to apply first, plus a live subscription to every frame after
// the snapshot's generation. The subscription is attached before the
// snapshot freeze, so no frame falls between them. On a closed publisher
// the subscription is already ended — the caller still gets the final
// snapshot, which is how late or reconnecting aggregators resynchronize
// with a finished site.
func (p *Publisher) Catchup(buf int) (bootstrap []Frame, live *pipeline.Sub[Frame]) {
	bootstrap, live, _ = p.catchup(buf, ResumeCursor{})
	return bootstrap, live
}

// catchup builds one reader's bootstrap: the live subscription is attached,
// the generation g read, then a snapshot of the engine frozen, so every
// frame up to g is reflected in that inventory and every later one reaches
// the subscription. The snapshot retires only what any freeze would, so a
// reader's arrival does not change the site's state. A cursor of this
// stream (this epoch, at most g) is resumed: its snapshot holds only the
// keys sealedAt maps past it, the freeze having just filed its own changes.
// Any other cursor gets the whole inventory.
func (p *Publisher) catchup(buf int, cur ResumeCursor) (bootstrap []Frame, live *pipeline.Sub[Frame], resumed bool) {
	if buf <= 0 {
		buf = feedBuffer
	}
	live = p.hub.Subscribe(buf)
	gen := p.seq.Load()
	inv := p.eng.Snapshot()
	p.mu.Lock()
	sealedAt := p.sealedAt
	p.mu.Unlock()
	var keep func(core.ServiceKey) bool
	if resumed = cur.Epoch == p.epoch && cur.Seq <= gen; resumed {
		p.resumeHits.Add(1)
		keep = func(k core.ServiceKey) bool {
			at, ok := sealedAt.Get(k)
			return ok && at > cur.Seq
		}
	} else {
		p.snapshotFallbacks.Add(1)
	}
	bootstrap = []Frame{
		{V: WireVersion, Type: FrameHello, Site: p.site, Epoch: p.epoch, Resumed: resumed},
		{V: WireVersion, Type: FrameSnapshot, Site: p.site, Epoch: p.epoch, Seq: gen, Snapshot: buildSnapshot(inv, keep)},
	}
	return bootstrap, live, resumed
}

// readHello waits for the client's resume hello on a connecting reader,
// bounded by HelloTimeout, and validates the version, frame type and
// auth token. The returned cursor is zero when the client asked for a
// snapshot explicitly.
func (p *Publisher) readHello(rw io.ReadWriter) (ResumeCursor, error) {
	rd, _ := rw.(readDeadliner)
	if rd != nil {
		_ = rd.SetReadDeadline(time.Now().Add(p.opt.HelloTimeout))
	}
	f, err := NewDecoder(rw).Decode()
	if rd != nil {
		_ = rd.SetReadDeadline(time.Time{})
	}
	if err != nil {
		p.hellosRejected.Add(1)
		return ResumeCursor{}, fmt.Errorf("federate: read client hello: %w", err)
	}
	if f.Type != FrameResume {
		p.hellosRejected.Add(1)
		return ResumeCursor{}, fmt.Errorf("federate: client hello type %q, want %q", f.Type, FrameResume)
	}
	if p.opt.AuthToken != "" && f.Token != p.opt.AuthToken {
		p.authFailures.Add(1)
		return ResumeCursor{}, errors.New("federate: feed auth token mismatch")
	}
	if f.Resume != nil {
		return *f.Resume, nil
	}
	return ResumeCursor{}, nil
}

// ServeConn streams the feed to one reader until the publisher closes, the
// context is cancelled, a write fails, or — on a connection — the reader
// hangs up: after the hello one read stays posted on the connection, and
// its EOF or error ends the serving at once instead of at some later
// failed write (see watchPeer).
//
// On an io.ReadWriter (any net.Conn) the protocol is client-speaks-first:
// the reader opens with a FrameResume hello carrying its cursor and, if
// the publisher demands one, the auth token; the publisher answers with a
// snapshot of the keys changed past a cursor of its stream and of the
// whole inventory otherwise (see catchup), then streams live frames
// interleaved with heartbeats. On a write-only stream (an archive file, an
// HTTP response) the hello is skipped and the reader gets the legacy
// snapshot-then-live serving — unless an auth token is configured, which a
// write-only peer cannot present.
//
// On a deadline-capable writer every write is bounded by writeTimeout,
// and context cancellation closes the connection, so a stalled peer
// cannot pin the serving goroutine. A reader whose frame queue overflowed
// is evicted at the first frame past the gap, before that frame is sent,
// so its cursor never passes a lost frame. An evicted or disconnected
// reader resynchronizes (by cursor or snapshot) on its next connection.
// Safe for any number of concurrent connections.
func (p *Publisher) ServeConn(ctx context.Context, w io.Writer) error {
	// hangUp closes the connection, failing any read or write stuck on it.
	hangUp := func() {
		if c, ok := w.(io.Closer); ok {
			c.Close()
		}
	}
	cur := ResumeCursor{}
	if rw, ok := w.(io.ReadWriter); ok {
		// Unblock a hello read stuck on a silent peer when the context
		// ends before the serving loop's own watcher is installed.
		stop := onDone(ctx, hangUp)
		var err error
		cur, err = p.readHello(rw)
		stop()
		if err != nil {
			return err
		}
	} else if p.opt.AuthToken != "" {
		p.authFailures.Add(1)
		return errors.New("federate: auth required but peer cannot send a hello")
	}
	bootstrap, live, _ := p.catchup(0, cur)
	defer live.Cancel()
	if rw, ok := w.(io.ReadWriter); ok {
		defer watchPeer(rw, live)()
	}
	defer onDone(ctx, func() {
		live.Cancel()
		hangUp()
	})()
	wd, _ := w.(writeDeadliner)
	enc := NewEncoder(w)
	// send encodes one frame and, when it is the last of its burst,
	// flushes the burst in one write under one deadline.
	send := func(f *Frame, last bool) error {
		var t0 time.Time
		if p.met != nil {
			t0 = time.Now()
		}
		err := enc.append(f)
		if err == nil && last {
			if wd != nil {
				_ = wd.SetWriteDeadline(time.Now().Add(writeTimeout))
			}
			if err = enc.flush(); errors.Is(err, os.ErrDeadlineExceeded) {
				p.evictions.Add(1)
			}
		}
		if p.met != nil {
			p.met.Encode.Observe(time.Since(t0))
		}
		return err
	}
	for i := range bootstrap {
		if err := send(&bootstrap[i], i == len(bootstrap)-1); err != nil {
			return err
		}
	}
	var heartbeat <-chan time.Time
	if p.opt.Heartbeat > 0 {
		t := time.NewTicker(p.opt.Heartbeat)
		defer t.Stop()
		heartbeat = t.C
	}
	events := live.Events()
	for {
		select {
		case f, ok := <-events:
			if !ok {
				if ctx != nil {
					return ctx.Err()
				}
				return nil
			}
			// A batch publishes its events back to back. Everything already
			// queued behind f goes out in the same write: nothing waits
			// for a frame that has not been published yet, so a frame
			// reaches the socket no later than it would have flushed alone.
			// This goroutine is the channel's only receiver, so the queued
			// frames are there to take without blocking. A burst stops at
			// maxRun frames, one full wire run, so each write under
			// writeTimeout is bounded and the rest of a full queue stays
			// queued, where an overflow drops.
			for queued := min(len(events), maxRun-1); ; queued-- {
				if live.Dropped() > 0 {
					p.evictions.Add(1)
					return errQueueOverflow
				}
				if err := send(&f, queued == 0); err != nil {
					return err
				}
				if queued == 0 {
					break
				}
				f = <-events
			}
		case <-heartbeat:
			hb := Frame{V: WireVersion, Type: FrameHeartbeat, Site: p.site, Epoch: p.epoch}
			if err := send(&hb, true); err != nil {
				return err
			}
			p.heartbeats.Add(1)
		}
	}
}

// errQueueOverflow ends the serving of a reader whose frame queue dropped a
// frame.
var errQueueOverflow = errors.New("federate: reader's frame queue overflowed")

// watchPeer keeps one read posted on a connected reader for as long as
// ServeConn serves it. The client has nothing to say after its hello, so
// any bytes are discarded; the read is there for its error. EOF or a
// reset means the aggregator hung up, and without a reader that is only
// noticed when a later write fails — the first of which succeeds on TCP
// and carries a whole burst to nobody, while the subscription and its
// buffered frames live on until then. On a read error the subscription is
// cancelled and the connection closed, which ends the serving loop. The
// returned func releases the read by deadline and waits for it, so no
// goroutine outlives ServeConn; a stream that takes no read deadline is
// not watched, because nothing could release its reader.
func watchPeer(rw io.ReadWriter, live *pipeline.Sub[Frame]) (release func()) {
	rd, ok := rw.(readDeadliner)
	if !ok {
		return func() {}
	}
	releasing := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		var discard [512]byte
		for {
			if _, err := rw.Read(discard[:]); err != nil {
				select {
				case <-releasing:
				default:
					live.Cancel()
					if c, ok := rw.(io.Closer); ok {
						c.Close()
					}
				}
				return
			}
		}
	}()
	return func() {
		close(releasing)
		_ = rd.SetReadDeadline(time.Now())
		<-exited
		_ = rd.SetReadDeadline(time.Time{})
	}
}

// Serve accepts aggregator connections on the listener, streaming the feed
// to each on its own goroutine, until the listener closes or the context
// is cancelled. It closes the listener on context cancellation.
func (p *Publisher) Serve(ctx context.Context, ln net.Listener) error {
	defer onDone(ctx, func() { ln.Close() })()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		go func() {
			defer conn.Close()
			_ = p.ServeConn(ctx, conn)
		}()
	}
}

// onDone calls f on its own goroutine once ctx is done, unless stop comes
// first; a nil ctx is never done.
func onDone(ctx context.Context, f func()) (stop func() bool) {
	if ctx == nil {
		return func() bool { return false }
	}
	return context.AfterFunc(ctx, f)
}
