// Package faultnet injects deterministic network faults into net.Conn
// links — partitions (connection cuts, including mid-frame truncation),
// latency spikes, bandwidth limits, byte corruption, and byte-span
// duplication — on a scripted or seeded-random schedule.
//
// Faults are applied on the *write* path of a wrapped endpoint, so one
// Faults plan impairs exactly one direction of a link; wrap both ends of
// a net.Pipe (see Pipe) to impair both. All offsets are positions in the
// un-impaired byte stream, so a plan's effect is independent of how the
// writer chunks its writes — the same seed always truncates, corrupts
// and duplicates the same stream positions, which is what makes chaos
// schedules replayable.
//
// Corruption inverts a byte (b ^ 0xFF), so a scheduled corruption always
// changes the stream — overwriting with a constant would be a no-op
// wherever the stream already holds it, and a binary wire is full of zero
// bytes. The federation wire's per-frame CRC turns any changed byte into
// a *detectable* decode error — never a silently altered payload — and
// the reader's error-and-reconnect path is what gets exercised.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"

	"servdisc/internal/stats"
)

// ErrCut is the error a wrapped connection returns once its plan's cut
// offset has passed; the underlying connection is closed at that point
// (both directions — a cut is a connection reset, not a half-close).
var ErrCut = errors.New("faultnet: link cut")

// Faults is one direction's impairment plan. The zero value injects
// nothing (a clean link).
type Faults struct {
	// CutAt resets the connection once this many bytes have passed —
	// possibly mid-frame, which is how truncation happens. 0 = never.
	CutAt int64
	// CorruptAt inverts the byte at each of these stream offsets (see
	// the package comment for why not a constant).
	CorruptAt []int64
	// DupAt/DupLen re-send the byte span [DupAt, DupAt+DupLen) a second
	// time, immediately after it first passes. Duplicated bytes do not
	// advance stream offsets. DupLen 0 = off.
	DupAt, DupLen int64
	// StallAt/Stall freeze the link once, for Stall, when the stream
	// reaches StallAt — a latency spike long enough to trip write
	// deadlines and idle timeouts. Stall 0 = off.
	StallAt int64
	Stall   time.Duration
	// Latency delays every write by this much (per-chunk propagation
	// delay). 0 = off.
	Latency time.Duration
	// BytesPerSec caps the direction's bandwidth. 0 = unlimited.
	BytesPerSec int
}

// Random draws a seeded impairment plan scaled by meanCut, the mean
// number of bytes before the connection is reset (0 disables cuts).
// Latencies and stalls are kept in the low-millisecond range so chaos
// tests stay fast; determinism comes entirely from the RNG.
func Random(rng *stats.RNG, meanCut int64) Faults {
	var f Faults
	if meanCut > 0 && rng.Bool(0.8) {
		f.CutAt = 1 + int64(rng.Exp(float64(meanCut)))
	}
	if meanCut > 0 && rng.Bool(0.4) {
		f.CorruptAt = []int64{1 + int64(rng.Exp(float64(meanCut)))}
	}
	if meanCut > 0 && rng.Bool(0.3) {
		f.DupAt = 1 + int64(rng.Exp(float64(meanCut)))
		f.DupLen = 1 + int64(rng.Intn(64))
	}
	if rng.Bool(0.4) {
		f.Latency = time.Duration(1+rng.Intn(2000)) * time.Microsecond
	}
	if meanCut > 0 && rng.Bool(0.3) {
		f.StallAt = 1 + int64(rng.Exp(float64(meanCut)))
		f.Stall = time.Duration(1+rng.Intn(20)) * time.Millisecond
	}
	return f
}

// Conn impairs the write direction of an underlying connection according
// to one Faults plan. Reads, deadlines and addresses delegate untouched.
// Writes are serialized by an internal lock (net.Conn allows concurrent
// writers; stream offsets must advance atomically).
type Conn struct {
	net.Conn
	f Faults
	// onCut, when set, runs as the plan's cut fires, before the
	// underlying connection closes (the proxy's tally of fired cuts).
	onCut func()

	mu      sync.Mutex
	off     int64
	stalled bool
	cut     bool
}

// WrapConn impairs bytes written by this endpoint (one direction of the
// link) according to the plan.
func WrapConn(c net.Conn, send Faults) *Conn {
	return &Conn{Conn: c, f: send}
}

// Pipe is an in-process link with per-direction impairment: clientSend
// shapes bytes the client writes, serverSend bytes the server writes.
// Both ends support deadlines (net.Pipe semantics).
func Pipe(clientSend, serverSend Faults) (client, server net.Conn) {
	c, s := net.Pipe()
	return WrapConn(c, clientSend), WrapConn(s, serverSend)
}

func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, ErrCut
	}
	f := &c.f
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.BytesPerSec > 0 {
		time.Sleep(time.Duration(float64(len(p)) / float64(f.BytesPerSec) * float64(time.Second)))
	}
	if f.Stall > 0 && !c.stalled && c.off+int64(len(p)) > f.StallAt {
		c.stalled = true
		time.Sleep(f.Stall)
	}
	n := len(p)
	cut := false
	if f.CutAt > 0 && c.off+int64(n) >= f.CutAt {
		n = int(f.CutAt - c.off)
		if n < 0 {
			n = 0
		}
		cut = true
	}
	out := p[:n]
	owned := false
	for _, at := range f.CorruptAt {
		if at >= c.off && at < c.off+int64(n) {
			if !owned {
				out = append([]byte(nil), out...)
				owned = true
			}
			out[at-c.off] ^= 0xFF
		}
	}
	var dup []byte
	dupEnd := 0 // index in out right after the duplicated span
	if f.DupLen > 0 {
		lo, hi := f.DupAt, f.DupAt+f.DupLen
		if lo < c.off {
			lo = c.off
		}
		if hi > c.off+int64(n) {
			hi = c.off + int64(n)
		}
		if lo < hi {
			dup = out[lo-c.off : hi-c.off]
			dupEnd = int(hi - c.off)
		}
	}
	if dup != nil {
		// The duplicated span re-enters the stream immediately after it
		// first passes, without advancing stream offsets.
		wn, err := c.Conn.Write(out[:dupEnd])
		c.off += int64(wn)
		if err != nil {
			return wn, err
		}
		if _, err := c.Conn.Write(dup); err != nil {
			return dupEnd, err
		}
		out = out[dupEnd:]
	}
	wn, err := c.Conn.Write(out)
	c.off += int64(wn)
	if err != nil {
		return dupEnd + wn, err
	}
	if cut {
		c.cut = true
		if c.onCut != nil {
			c.onCut()
		}
		c.Conn.Close()
		return n, ErrCut
	}
	return n, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.Conn.Close() }
