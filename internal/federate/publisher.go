package federate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
// non-terminal frozen snapshot, a bounded subscription to the typed event
// stream, and the snapshot observer slot (the publisher takes it; see
// observe). core.ShardedPassive, core.Hybrid and the servdisc facade
// Pipeline all satisfy it.
type Engine interface {
	Snapshot() *core.Inventory
	Subscribe(buf int) *core.EventSub
	OnSnapshot(fn func(prev, inv *core.Inventory, delta core.SnapshotDelta))
}

// pumpBuffer sizes the publisher's own engine subscription. The pump does
// nothing but stamp a sequence number and republish, so it lags only under
// extreme bursts; a dropped event here is invisible to current readers but
// heals on their next catch-up snapshot.
const pumpBuffer = 1 << 15

// feedBuffer sizes each reader's frame subscription: deep enough to absorb
// a slow network writer for several seconds at realistic discovery rates.
const feedBuffer = 1 << 13

// writeDeadliner is the slice of net.Conn ServeConn uses to bound writes.
type writeDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// readDeadliner is the slice of net.Conn ServeConn uses to bound the wait
// for the client's resume hello.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// PublisherOptions tunes the serving side of a publisher. The zero value
// picks the defaults noted on each field.
type PublisherOptions struct {
	// ReplayRing is how many sequenced frames the delta-resync ring
	// retains (per epoch). Zero means 16384; negative disables resume
	// entirely (every reconnect bootstraps from a snapshot).
	ReplayRing int
	// Heartbeat is the keepalive interval on a quiet feed. Zero means
	// 10s; negative disables heartbeats.
	Heartbeat time.Duration
	// WriteTimeout bounds each write (one burst of frames) on a
	// deadline-capable connection; a peer that stops reading is evicted
	// within this window. Zero means 1m.
	WriteTimeout time.Duration
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
	if o.ReplayRing == 0 {
		o.ReplayRing = 1 << 14
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = time.Minute
	}
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = 10 * time.Second
	}
	return o
}

// PublisherStats counts the serving side's resilience events, for the
// daemon metrics surface. All fields are totals since publisher start.
type PublisherStats struct {
	// ResumeHits counts connections served a delta from the replay ring;
	// SnapshotFallbacks counts connections that needed the full snapshot
	// bootstrap (first connect, stale cursor, epoch change, ring gap).
	ResumeHits        uint64
	SnapshotFallbacks uint64
	// AuthFailures counts connections closed over a wrong or missing
	// token; HellosRejected counts malformed or timed-out client hellos.
	AuthFailures   uint64
	HellosRejected uint64
	// Evictions counts connections dropped on a frame-write deadline —
	// readers too slow to keep up with the feed.
	Evictions uint64
	// HeartbeatsSent counts keepalive frames written across all readers.
	HeartbeatsSent uint64
}

// Publisher tags one engine's discovery stream with a SiteID and serves it
// to any number of readers, each bootstrapped with a frozen snapshot — or,
// when the reader presents a resume cursor the replay ring still covers,
// with just the frames past that cursor (delta resync).
//
// The catch-up contract: a reader always receives one FrameHello, then
// either one FrameSnapshot whose Seq is the generation g it covers
// followed by live event frames (every event with sequence <= g is
// already reflected in the snapshot), or — when its resume cursor was
// honored (hello.Resumed) — the replayed frames past its cursor followed
// by live frames. Either way a reconnecting aggregator that remembers its
// high-water sequence skips duplicates by generation and never
// double-counts; replay/live overlap is absorbed the same way.
//
// Delivery to readers is bounded and lossy (pipeline.Hub semantics): a
// reader that cannot keep up loses frames rather than stalling the others,
// and recovers the lost state on its next connection.
type Publisher struct {
	site SiteID
	// epoch identifies this publisher incarnation; sequence numbers are
	// only meaningful within it (see Frame.Epoch).
	epoch uint64
	eng   Engine
	hub   *pipeline.Hub[Frame]
	sub   *core.EventSub
	seq   atomic.Uint64
	done  chan struct{}
	ring  *replayRing // nil when resume is disabled
	opt   PublisherOptions

	// seal is what the engine's seals changed since the last seal frame,
	// under sealMu; sealed wakes the pump to ship it.
	sealMu sync.Mutex
	seal   pendingSeal
	sealed chan struct{}

	mu     sync.Mutex
	closed bool

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
// identity. The publisher subscribes to the engine immediately; close the
// engine (or Close the publisher) to end the feed.
func NewPublisher(site SiteID, eng Engine) *Publisher {
	return NewPublisherResumed(site, eng, PublisherState{})
}

// PublisherState is the publisher's stream cursor — which (epoch, seq)
// position its feed has reached — in checkpointable form.
type PublisherState struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// NewPublisherResumed starts a publisher that continues a checkpointed
// stream with default options; see NewPublisherOpts.
func NewPublisherResumed(site SiteID, eng Engine, st PublisherState) *Publisher {
	return NewPublisherOpts(site, eng, st, PublisherOptions{})
}

// NewPublisherOpts starts a publisher that continues a checkpointed
// stream: it keeps the stored epoch and numbers new events after the
// stored cursor, so a restored site resumes its feed instead of opening a
// new epoch and reshipping history. Downstream aggregators treat the
// restored engine's re-announcements — events the pre-checkpoint
// incarnation published after the checkpoint was cut — as duplicates by
// sequence where ingest order matches, and absorb any residue through
// idempotent merges and the next snapshot. A zero state is a fresh start
// (a new wall-clock epoch), which is what NewPublisher passes.
func NewPublisherOpts(site SiteID, eng Engine, st PublisherState, opt PublisherOptions) *Publisher {
	epoch := st.Epoch
	if epoch == 0 {
		epoch = uint64(time.Now().UnixNano())
	}
	opt = opt.withDefaults()
	p := &Publisher{
		site:   site,
		epoch:  epoch,
		eng:    eng,
		hub:    pipeline.NewHub[Frame](),
		sub:    eng.Subscribe(pumpBuffer),
		done:   make(chan struct{}),
		sealed: make(chan struct{}, 1),
		opt:    opt,
	}
	if opt.ReplayRing > 0 {
		p.ring = newReplayRing(opt.ReplayRing, st.Seq)
	}
	p.seq.Store(st.Seq)
	eng.OnSnapshot(p.observe)
	go p.pump()
	return p
}

// State reports the stream cursor at this instant, for checkpointing.
// Capture it at the same consistency point as the engine export (the
// checkpoint Writer snapshots it right after the engine freeze).
func (p *Publisher) State() PublisherState {
	return PublisherState{Epoch: p.epoch, Seq: p.seq.Load()}
}

// Site returns the publisher's site identity.
func (p *Publisher) Site() SiteID { return p.site }

// observe is the publisher's snapshot observer. Under the engine's
// snapshot lock it only records the seal, O(delta) under sealMu, and wakes
// the pump without waiting. Seals not shipped yet coalesce: the rows are
// read at shipping time from the newest inventory, whose row dominates a
// service's older ones (times only fall, weights only rise) except across
// an expiry, whose retract frame ships first. A seal with no predecessor
// (the chain's first, or the first after a restore) is skipped: readers
// bootstrap from snapshots of this chain, so they hold what it would list.
func (p *Publisher) observe(prev, inv *core.Inventory, d core.SnapshotDelta) {
	if prev == nil {
		return
	}
	select {
	case <-p.done:
		return // the pump is gone; nothing would ship it
	default:
	}
	p.sealMu.Lock()
	if p.seal.inv == nil {
		p.seal.base = prev
	}
	p.seal.inv = inv
	p.seal.keys = append(append(p.seal.keys, d.Added...), d.Updated...)
	p.sealMu.Unlock()
	select {
	case p.sealed <- struct{}{}:
	default:
	}
}

// pump sequences the engine's events, and a seal frame per pending seal
// between them, so a reader that bootstrapped mid-stream gets the weights
// too. A single goroutine assigns sequence numbers, so frame order on every
// reader's subscription is the site's canonical stream order. Each frame
// enters the replay ring before the hub, so the ring always covers anything
// a live subscriber could have missed. When the event stream ends, one last
// engine snapshot seals what the events left out, and its seal frame goes
// out before the hub closes.
func (p *Publisher) pump() {
	defer close(p.done)
	events := p.sub.Events()
	dropped := p.sub.Dropped()
	emit := func(f Frame) {
		f.V, f.Site, f.Epoch, f.Seq = WireVersion, p.site, p.epoch, p.seq.Add(1)
		if p.ring != nil {
			p.ring.append(f)
		}
		p.hub.Publish(f)
	}
	event := func(ev core.Event) {
		if p.ring != nil {
			if d := p.sub.Dropped(); d != dropped {
				// Events vanished before ever being sequenced: their
				// state mutations live only in future snapshots, so no
				// resume cursor is trustworthy for the rest of the epoch.
				p.ring.markGap()
				dropped = d
			}
		}
		if ev.Kind == core.EventServiceExpired {
			// Expiry leaves the site's inventory as a withdrawal, not a
			// discovery: ship it as a retract frame so the aggregator
			// clears the evidence instead of merging it.
			emit(Frame{Type: FrameRetract, Retract: &Retraction{Key: ev.Key, At: ev.Time, Prov: ev.Provenance}})
			return
		}
		emit(Frame{Type: FrameEvent, Event: &ev})
	}
	seal := func() {
		p.sealMu.Lock()
		s := p.seal
		p.seal = pendingSeal{}
		p.sealMu.Unlock()
		if s.inv == nil {
			return
		}
		// The events published before the newest seal, its expiries
		// among them, are queued by now: they go first.
		for n := len(events); n > 0; n-- {
			event(<-events)
		}
		if snap := buildSeal(s); snap != nil {
			emit(Frame{Type: FrameSeal, Snapshot: snap})
		}
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				p.eng.Snapshot()
				seal()
				p.hub.Close()
				return
			}
			event(ev)
		case <-p.sealed:
			seal()
		}
	}
}

// Dropped returns how many engine events the publisher itself missed (its
// pump subscription overflowed). Lost events are absent from the live feed
// but reappear in every later snapshot.
func (p *Publisher) Dropped() int { return p.sub.Dropped() }

// FrameCounters exposes the fanout's flow counters: In counts frames
// published, Out per-reader deliveries, Dropped per-reader drops.
func (p *Publisher) FrameCounters() *pipeline.StageCounters { return p.hub.Counters() }

// Close stops the pump and ends every reader's feed, after the frames
// already queued and the last seal frame drain. The engine itself is
// only snapshotted. Idempotent; closing the engine has the same effect.
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.sub.Cancel()
	<-p.done
}

// Catchup opens one reader's view of the feed: the hello and snapshot
// frames to apply first, plus a live subscription to every frame after
// the snapshot's generation. The subscription is attached before the
// snapshot freeze, so no event falls between them. On a closed publisher
// the subscription is already ended — the caller still gets the final
// snapshot, which is how late or reconnecting aggregators resynchronize
// with a finished site.
func (p *Publisher) Catchup(buf int) (bootstrap []Frame, live *pipeline.Sub[Frame]) {
	bootstrap, live, _ = p.catchup(buf, ResumeCursor{})
	return bootstrap, live
}

// catchup builds one reader's bootstrap, honoring a resume cursor when
// the replay ring still covers it: the live subscription is attached
// first, then either the ring's frames past the cursor (resumed == true)
// or the hello + frozen snapshot. In the resume path any frame published
// between the subscription attach and the ring copy appears in both —
// the ring is appended before the hub publish, so nothing falls between
// — and the reader's sequence dedup absorbs the overlap.
func (p *Publisher) catchup(buf int, cur ResumeCursor) (bootstrap []Frame, live *pipeline.Sub[Frame], resumed bool) {
	if buf <= 0 {
		buf = feedBuffer
	}
	live = p.hub.Subscribe(buf)
	if p.ring != nil && cur.Epoch == p.epoch {
		if frames, ok := p.ring.replayFrom(cur.Seq); ok {
			p.resumeHits.Add(1)
			bootstrap = make([]Frame, 0, len(frames)+1)
			bootstrap = append(bootstrap, Frame{
				V: WireVersion, Type: FrameHello, Site: p.site, Epoch: p.epoch, Resumed: true,
			})
			bootstrap = append(bootstrap, frames...)
			return bootstrap, live, true
		}
	}
	p.snapshotFallbacks.Add(1)
	gen := p.seq.Load()
	snap := BuildSnapshot(p.eng.Snapshot())
	bootstrap = []Frame{
		{V: WireVersion, Type: FrameHello, Site: p.site, Epoch: p.epoch},
		{V: WireVersion, Type: FrameSnapshot, Site: p.site, Epoch: p.epoch, Seq: gen, Snapshot: snap},
	}
	return bootstrap, live, false
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
// delta replay when the cursor is still covered by the replay ring and a
// snapshot bootstrap otherwise, then streams live frames interleaved with
// heartbeats. On a write-only stream (an archive file, an HTTP response)
// the hello is skipped and the reader gets the legacy snapshot-then-live
// serving — unless an auth token is configured, which a write-only peer
// cannot present.
//
// On a deadline-capable writer every write is bounded by WriteTimeout,
// and context cancellation closes the connection, so a stalled peer
// cannot pin the serving goroutine — a deadline-evicted or
// disconnected reader resynchronizes (by cursor or snapshot) on its next
// connection. Safe for any number of concurrent connections.
func (p *Publisher) ServeConn(ctx context.Context, w io.Writer) error {
	cur := ResumeCursor{}
	if rw, ok := w.(io.ReadWriter); ok {
		// Unblock a hello read stuck on a silent peer when the context
		// ends before the serving loop's own watcher is installed.
		stop := make(chan struct{})
		if ctx != nil && ctx.Done() != nil {
			go func() {
				select {
				case <-ctx.Done():
					if c, ok := w.(io.Closer); ok {
						c.Close()
					}
				case <-stop:
				}
			}()
		}
		var err error
		cur, err = p.readHello(rw)
		close(stop)
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
	if ctx != nil {
		if done := ctx.Done(); done != nil {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				select {
				case <-done:
					live.Cancel()
					if c, ok := w.(io.Closer); ok {
						c.Close()
					}
				case <-live.Done():
				case <-stop:
				}
			}()
		}
	}
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
				_ = wd.SetWriteDeadline(time.Now().Add(p.opt.WriteTimeout))
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
			// A seal publishes its events back to back. Everything already
			// queued behind f goes out in the same write: nothing waits
			// for a frame that has not been published yet, so a frame
			// reaches the socket no later than it would have flushed alone.
			// This goroutine is the channel's only receiver, so the queued
			// frames are there to take without blocking.
			for queued := len(events); ; queued-- {
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
	if ctx != nil {
		if done := ctx.Done(); done != nil {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				select {
				case <-done:
					ln.Close()
				case <-stop:
				}
			}()
		}
	}
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
