package federate

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// FeedOptions tunes one feed client. The zero value picks the defaults
// noted on each field.
type FeedOptions struct {
	// AuthToken is sent in the resume hello; publishers configured with
	// a token close the connection when it does not match.
	AuthToken string
	// DialTimeout bounds each dial attempt (and the hello write). Zero
	// means 10s.
	DialTimeout time.Duration
	// IdleTimeout bounds the silence between frames on a deadline-capable
	// connection. The publisher's heartbeats (default 10s) keep a healthy
	// but quiet feed inside it; a partitioned one errors out and redials
	// instead of hanging forever. Zero means 45s; negative disables.
	IdleTimeout time.Duration
	// Backoff shapes the reconnect schedule (see BackoffConfig).
	Backoff BackoffConfig
	// MaxFramesPerSec and MaxBytesPerSec are this feed's ingest rate
	// caps: a deficit stalls the reader, which backpressures the
	// publisher's bounded per-reader queue. Zero disables a cap. Frames
	// are decoded frames, each event of a run one; a run's wire bytes are
	// charged once, at its first frame.
	MaxFramesPerSec float64
	MaxBytesPerSec  float64
	// Dial overrides the transport (tests and in-process wiring); nil
	// dials TCP to the client's address.
	Dial func(ctx context.Context) (net.Conn, error)
	// OnConnect and OnDisconnect observe the connection lifecycle
	// (logging, flight-recorder traces). Called from the Run goroutine.
	OnConnect    func()
	OnDisconnect func(err error)
}

func (o FeedOptions) withDefaults() FeedOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 45 * time.Second
	}
	return o
}

// FeedStats counts one feed client's resilience events since start.
type FeedStats struct {
	// Connects counts completed dials, DialErrors failed ones,
	// Disconnects ended connections (each triggers a backoff + redial).
	Connects, DialErrors, Disconnects uint64
	// ResumeHits counts connections the publisher resumed with a snapshot
	// of the keys changed past the cursor; SnapshotFallbacks counts full
	// snapshot bootstraps.
	ResumeHits, SnapshotFallbacks uint64
	// ThrottleStalls counts frames the rate caps made wait.
	ThrottleStalls uint64
	// FramesApplied counts frames folded into the aggregator;
	// Heartbeats the keepalive frames among them.
	FramesApplied, Heartbeats uint64
}

// FeedClient keeps one site feed alive against a hostile network: dial
// with a timeout, present the aggregator's dedup cursor as a resume
// hello (a snapshot of only what changed past it), apply frames under per-feed rate caps and an
// idle deadline the publisher's heartbeats must keep beating, and on any
// failure back off exponentially with full jitter before redialing.
// It is the production reconnect path cmd/federated runs and the chaos
// tests drive.
type FeedClient struct {
	agg  *Aggregator
	addr string
	opt  FeedOptions

	// site is the identity learned from the first hello; until then no
	// resume cursor can be presented (there is nothing to resume).
	site atomic.Value // SiteID
	// nextCeiling is the un-jittered ceiling of the next reconnect
	// delay — the backoff-state gauge.
	nextCeiling atomic.Int64

	connects, dialErrors, disconnects,
	resumeHits, snapshotFallbacks,
	throttleStalls, framesApplied, heartbeats atomic.Uint64
}

// NewFeedClient builds a client for one feed address. Run starts it.
func NewFeedClient(agg *Aggregator, addr string, opt FeedOptions) *FeedClient {
	c := &FeedClient{agg: agg, addr: addr, opt: opt.withDefaults()}
	c.nextCeiling.Store(int64(c.opt.Backoff.withDefaults().Base))
	return c
}

// Site returns the feed's site identity, empty until the first hello.
func (c *FeedClient) Site() SiteID {
	if s, ok := c.site.Load().(SiteID); ok {
		return s
	}
	return ""
}

// Stats reports the client's resilience counters.
func (c *FeedClient) Stats() FeedStats {
	return FeedStats{
		Connects:          c.connects.Load(),
		DialErrors:        c.dialErrors.Load(),
		Disconnects:       c.disconnects.Load(),
		ResumeHits:        c.resumeHits.Load(),
		SnapshotFallbacks: c.snapshotFallbacks.Load(),
		ThrottleStalls:    c.throttleStalls.Load(),
		FramesApplied:     c.framesApplied.Load(),
		Heartbeats:        c.heartbeats.Load(),
	}
}

// NextBackoff reports the un-jittered ceiling of the next reconnect
// delay: Base while the feed is healthy, climbing toward Cap while it
// fails — the backoff-state gauge for /metrics and /healthz.
func (c *FeedClient) NextBackoff() time.Duration {
	return time.Duration(c.nextCeiling.Load())
}

func (c *FeedClient) dial(ctx context.Context) (net.Conn, error) {
	if c.opt.Dial != nil {
		return c.opt.Dial(ctx)
	}
	d := net.Dialer{Timeout: c.opt.DialTimeout}
	return d.DialContext(ctx, "tcp", c.addr)
}

// Run keeps the feed alive until the context ends: dial, consume until
// the connection breaks, back off, redial. A connection that applied at
// least one frame (or stayed up resetAfter) resets the backoff schedule.
func (c *FeedClient) Run(ctx context.Context) error {
	bo := newBackoff(c.opt.Backoff)
	for ctx.Err() == nil {
		conn, err := c.dial(ctx)
		if err != nil {
			c.dialErrors.Add(1)
		} else {
			c.connects.Add(1)
			if c.opt.OnConnect != nil {
				c.opt.OnConnect()
			}
			start := time.Now()
			before := c.framesApplied.Load()
			err = c.RunConn(ctx, conn)
			conn.Close()
			c.disconnects.Add(1)
			if c.opt.OnDisconnect != nil {
				c.opt.OnDisconnect(err)
			}
			bo.observe(time.Since(start), c.framesApplied.Load() > before)
		}
		delay := bo.next()
		c.nextCeiling.Store(int64(bo.ceiling()))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
	return ctx.Err()
}

// RunConn consumes one established connection: send the resume hello
// (the aggregator's cursor for this site, if any), then decode and apply
// frames until the stream ends, the idle deadline fires, or the context
// is cancelled. A clean EOF returns nil. Exported so in-process wiring
// (net.Pipe to a local publisher) runs the same protocol path as TCP.
func (c *FeedClient) RunConn(ctx context.Context, conn net.Conn) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	hello := Frame{V: WireVersion, Type: FrameResume, Token: c.opt.AuthToken, Resume: &ResumeCursor{}}
	if site := c.Site(); site != "" {
		if epoch, seq, ok := c.agg.SiteCursor(site); ok {
			hello.Resume = &ResumeCursor{Epoch: epoch, Seq: seq}
		}
	}
	_ = conn.SetWriteDeadline(time.Now().Add(c.opt.DialTimeout))
	if err := NewEncoder(conn).Encode(&hello); err != nil {
		return err
	}
	_ = conn.SetWriteDeadline(time.Time{})

	var throttle *feedThrottle
	if c.opt.MaxFramesPerSec > 0 || c.opt.MaxBytesPerSec > 0 {
		throttle = newFeedThrottle(c.opt.MaxFramesPerSec, c.opt.MaxBytesPerSec)
	}
	dec := NewDecoder(conn)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if c.opt.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(c.opt.IdleTimeout))
		}
		var t0 time.Time
		met := c.agg.met
		if met != nil {
			t0 = time.Now()
		}
		start := dec.Offset()
		f, err := dec.Decode()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if met != nil {
			met.Decode.Observe(time.Since(t0))
		}
		if throttle != nil {
			// The decoder's offsets are exact frame boundaries; bytes its
			// buffer read ahead belong to the frames still inside it.
			stalled, err := throttle.admit(ctx, dec.Offset()-start)
			if stalled {
				c.throttleStalls.Add(1)
			}
			if err != nil {
				return err
			}
		}
		switch f.Type {
		case FrameHello:
			c.site.Store(f.Site)
			if f.Resumed {
				c.resumeHits.Add(1)
			} else {
				c.snapshotFallbacks.Add(1)
			}
		case FrameHeartbeat:
			c.heartbeats.Add(1)
		}
		var t1 time.Time
		if met != nil {
			t1 = time.Now()
		}
		err = c.agg.Apply(f)
		if met != nil {
			met.Apply.Observe(time.Since(t1))
		}
		if err != nil {
			return err
		}
		c.framesApplied.Add(1)
	}
}
