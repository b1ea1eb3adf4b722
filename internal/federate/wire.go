// Package federate turns N independent discovery engines — one per campus
// or vantage point — into one aggregating global inventory.
//
// Three pieces compose the subsystem:
//
//   - The wire codec (Encoder/Decoder): a versioned, length-prefixed,
//     CRC-checked binary framing for the typed discovery event stream
//     (core.Event) plus a snapshot-bootstrap frame derived from the
//     generation-tracked core.Inventory.
//   - Publisher: tags one engine's stream with a SiteID and serves
//     snapshot-then-live-events to any number of readers. Catch-up is the
//     latest frozen snapshot plus every event after its generation, so a
//     reconnecting aggregator resumes without replaying history it already
//     has.
//   - Aggregator: subscribes to N site feeds (in-process via pipeline.Hub
//     subscriptions, or over the wire via FeedClient) and reconciles them
//     into a global inventory with per-site provenance and cross-site
//     dedup. Every state merge is idempotent, commutative and monotone, so
//     the aggregated Dump is byte-identical regardless of feed arrival
//     interleaving and across disconnect/reconnect cycles — the federation
//     analogue of the sharded engine's shard-then-merge determinism.
//
// See DESIGN.md §6 for the protocol walk-through.
package federate

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// WireVersion is the protocol version stamped into every frame. A decoder
// rejects frames from a different major version rather than guessing.
// Version 2 added retraction: the retract frame type and the snapshot's
// retraction list (TTL-expired services withdrawn from the aggregate).
// Version 3 added resilience: the client-side resume hello (delta resync
// from a bounded replay ring instead of a full snapshot), wire-level
// heartbeat frames, the shared-token auth field, and the publisher
// hello's Resumed marker. Version 4 kept every frame and its meaning and
// replaced the JSONL bytes with the binary layout below. Version 5 sends
// Seq and times as deltas and gives upgrades both per-technique times.
// Version 6 makes a run of consecutive event (or retract) frames one wire
// frame and adds the seal frame. Version 7 moves retraction into the seal
// frame's body and drops the retract frame, whose type code 4 stays
// unassigned, and leaves a snapshot body's empty lists out.
const WireVersion = 7

// maxRun bounds the entries of one run (see Frame), so a hostile frame can
// leave at most maxRun-1 decoded frames queued behind the one returned.
const maxRun = 256

// maxFrameLen bounds a single frame. Snapshot frames grow with inventory
// size (~20 B per service), so the cap is generous; anything beyond it
// indicates a corrupt or hostile stream, not a real inventory.
const maxFrameLen = 1 << 28 // 256 MiB

// maxRetainedBuf is the largest codec buffer a connection keeps between
// frames: event bursts reuse it, a snapshot-sized one goes back to the
// collector instead of staying pinned for the connection's lifetime.
const maxRetainedBuf = 1 << 20

// SiteID names one publishing vantage point (one campus, one engine).
type SiteID string

// FrameType discriminates the wire frames.
type FrameType string

// Frame types.
const (
	// FrameHello opens a feed: version + site identity, no payload.
	FrameHello FrameType = "hello"
	// FrameSnapshot bootstraps a reader: the publisher's frozen inventory
	// as of generation Seq. Every event with sequence <= Seq is already
	// reflected in the snapshot — the dedup rule reconnecting aggregators
	// rely on.
	FrameSnapshot FrameType = "snapshot"
	// FrameEvent carries one live core.Event, tagged with its position in
	// the site's stream.
	FrameEvent FrameType = "event"
	// FrameResume is the client hello: the first (and only) frame a
	// connecting reader sends. It carries the reader's dedup cursor
	// (Frame.Resume) and, when the publisher demands one, the shared auth
	// token (Frame.Token). A publisher that can resume the cursor answers
	// with a snapshot of only the keys changed past it; otherwise it falls
	// back to the full snapshot bootstrap. A zero cursor requests the
	// snapshot explicitly (a first connection).
	FrameResume FrameType = "resume"
	// FrameHeartbeat is a publisher keepalive on a quiet feed: no
	// payload, no sequence number, never mutates aggregator state. Its
	// only job is to keep arriving before the reader's idle deadline.
	FrameHeartbeat FrameType = "heartbeat"
	// FrameSeal carries what the engine's seals since the previous seal
	// frame changed, in a snapshot body (Frame.Snapshot): the retractions,
	// then the rows, weights, scanner peaks, sweeps and packet count no
	// event carries. It is the one frame that carries a site's state past
	// the bootstrap; events only deliver discoveries sooner. Sequenced
	// like an event frame.
	FrameSeal FrameType = "seal"
)

// The wire's type codes: the header byte's low three bits. Zero is
// invalid; four, the retract frame's until wire v7, is unassigned.
const (
	codeHello = iota + 1
	codeSnapshot
	codeEvent
	_
	codeResume
	codeHeartbeat
	codeSeal
)

var frameTypes = [...]FrameType{
	codeHello:     FrameHello,
	codeSnapshot:  FrameSnapshot,
	codeEvent:     FrameEvent,
	codeResume:    FrameResume,
	codeHeartbeat: FrameHeartbeat,
	codeSeal:      FrameSeal,
}

// ResumeCursor is the payload of a resume hello: the highest (epoch, seq)
// position the reader has applied from this site's stream. Sequence
// numbers are only comparable within an epoch, so a cursor from another
// incarnation is never resumable.
type ResumeCursor struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// Retraction is one entry of a snapshot or seal frame's retraction list:
// the site no longer holds evidence of the given kind for the service, as
// of At — the retention deadline that expired it. Prov names the evidence
// kind withdrawn (PassiveOnly or ActiveOnly). Evidence timestamped at or
// after At re-establishes the service; older evidence is void. A seal
// carries the tombstones new or moved since the previous seal frame, a
// snapshot every tombstone of the keys it lists, so a reader that missed
// frames gets them back with the next seal or its next connection.
type Retraction struct {
	Key  core.ServiceKey `json:"key"`
	At   time.Time       `json:"at"`
	Prov core.Provenance `json:"prov"`
}

// Frame is one unit of the federation wire: a site-tagged envelope around
// an event, or a snapshot or seal body. The JSON tags are not the wire form
// (see the layout below); they are how cmd/feedcat renders a captured feed.
//
// On the wire (all integers little-endian):
//
//	frame   = uvarint(len) header [envelope] body crc32c
//	header  = version<<4 | envelope<<3 | type code (1..7)
//	envelope= uvarint(len(site)) site  u64(epoch)
//	crc32c  = u32, Castagnoli, over header..body, xor stream.crc's mix of
//	          the Seq and time bases; len counts header..crc
//
//	hello     body = u8 flags (bit0 resumed)
//	resume    body = u64 cursor epoch, uvarint cursor seq, uvarint(len) token
//	heartbeat body = (empty)
//	event     body = seq, event, event*
//	snapshot  body = seq, varint packets, u8 lists (bit0 services,
//	                 bit1 scanners, bit2 scans, bit3 retractions), then
//	                 each listed one: uvarint n (n > 0), n×entry
//	seal      body = (as snapshot)
//
//	event      = u8 kind, u8 flags (bit0 time, bit1 key+prov, bit2 scanner,
//	             bit3 scan, bit4 truncated, bit5 passive_at, bit6 active_at),
//	             present times (time, passive_at, active_at), other parts
//	service    = key, u8 prov, u8 flags (bit0 passive_at, bit1 active_at),
//	             present times, varint flows, varint clients
//	retraction = key, u8 prov, u8 flags (bit0 at), present time
//	scanner    = u32 source, u8 flags (bit0 window), present time,
//	             varint unique_dsts, varint rst_dsts
//	scan       = varint id, u8 flags (bit0 started, bit1 finished), times
//	key        = u32 addr, u8 proto, u16 port
//	seq        = varint(int64(seq − previous seq − 1))
//	time       = varint(int64(UnixNano − previous UnixNano)), decoded to UTC
//
// The stream state is sticky: both ends start at zero and keep the last
// (Site, Epoch), Seq and time, so the envelope is written only when it
// changes and each Seq or time as a wrapping 64-bit difference from the
// last — a byte per Seq on a live feed — while frames of several sites
// interleaved through one Encoder/Decoder pair still round-trip exactly.
// State moves only when a whole frame codes. A zero time.Time is an absent
// time (its UnixNano is undefined); a non-zero time outside the int64-ns
// range (years 1678–2262) is an encode error, never a wrapped value. Enum
// bytes (type, kind, provenance) and flag bytes are range-checked on decode:
// an unknown value is an error, not a silent zero. Seq rides only on the
// sequenced types (snapshot, event, seal), Resumed only on hello,
// Resume and Token only on resume.
//
// An event body is a run: each entry after the first is the event frame of
// the same (Site, Epoch) with the next Seq, implied, not written, so it
// costs only its payload (12 bytes for a discovery event).
// A run holds at most maxRun entries; Decode returns them one per call.
//
// The version sits in the header's high nibble so it is checked before
// the body is even read. A v3 peer's JSONL frame ("63 {...}\n") puts an
// ASCII digit (0x3N) there, so a mixed-version pair fails on the first
// frame with "wire version 3, want 7" on the v7 side (a v6 one: "6, want 7").
type Frame struct {
	// V is the protocol version (WireVersion).
	V int `json:"v"`
	// Type discriminates the payload.
	Type FrameType `json:"type"`
	// Site identifies the publishing engine.
	Site SiteID `json:"site"`
	// Epoch identifies one publisher incarnation (a fresh value per
	// publisher process). Sequence numbers are only comparable within an
	// epoch: an aggregator seeing a new epoch resets its dedup cursors
	// instead of discarding the restarted site's feed as duplicates.
	Epoch uint64 `json:"epoch,omitempty"`
	// Seq is the frame's position in the site's stream (event and seal
	// frames, counted from 1), or the stream position the snapshot covers
	// (snapshot frames: every frame with Seq <= this value is reflected).
	Seq uint64 `json:"seq,omitempty"`
	// Event is the payload of an event frame.
	Event *core.Event `json:"event,omitempty"`
	// Snapshot is the payload of a snapshot or seal frame.
	Snapshot *Snapshot `json:"snapshot,omitempty"`
	// Resume is the payload of a resume hello (client to publisher only).
	Resume *ResumeCursor `json:"resume,omitempty"`
	// Token is the shared auth secret on a resume hello; publishers
	// configured with one close the connection when it is wrong or
	// missing, before serving a single frame.
	Token string `json:"token,omitempty"`
	// Resumed marks the publisher's hello on a connection whose resume
	// cursor was honored: the snapshot frame that follows holds only the
	// keys changed past the cursor. Readers use it to count resume-hits
	// against snapshot-fallbacks.
	Resumed bool `json:"resumed,omitempty"`
}

const (
	headerEnvelope = 1 << 3
	headerTypeMask = headerEnvelope - 1
	crcLen         = 4
	// maxLenPrefix is the widest length prefix an encoder writes
	// (maxFrameLen needs 29 bits).
	maxLenPrefix = 5
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The int64-nanosecond window a wire time must fall in.
var (
	minWireTime = time.Unix(0, math.MinInt64)
	maxWireTime = time.Unix(0, math.MaxInt64)
)

// stream is the sticky stream state an Encoder and the Decoder reading it
// share: the envelope the decoder assumes for a frame that carries none,
// and the bases the next Seq and the next time are written against.
type stream struct {
	site       SiteID
	epoch, seq uint64
	ns         int64
}

// crc is a frame's checksum: its CRC-32C xor a mix of the Seq and time
// bases it is coded against (zero at a stream's start). A frame decoded
// against other bases — a span replayed or dropped on the way — fails it
// instead of being read with a shifted Seq and shifted times.
func (s *stream) crc(frame []byte) uint32 {
	h := s.seq*0x9e3779b97f4a7c15 + uint64(s.ns)
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	return crc32.Checksum(frame, castagnoli) ^ uint32(h^h>>32)
}

// Encoder writes frames in the binary wire form, joining the event frames
// appended between two flushes into runs (see joins). Not
// safe for concurrent writers; each feed connection owns one encoder.
type Encoder struct {
	w   io.Writer
	buf []byte
	st  stream
	// The open frame, whose CRC and length prefix are not written yet:
	// where its length-prefix gap starts in buf, the stream state its CRC
	// is taken against, and its entries (0 when no frame is open).
	open int
	base stream
	n    int
}

// NewEncoder wraps a writer (typically a net.Conn or an HTTP response).
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w}
}

// Encode writes one frame and flushes it to the underlying writer, so a
// live feed never sits in the buffer waiting for a frame that may be
// minutes away.
func (e *Encoder) Encode(f *Frame) error {
	if err := e.append(f); err != nil {
		return err
	}
	return e.flush()
}

// append encodes one frame into the buffer without writing it; flush
// sends everything appended since the last one in a single Write. A frame
// that fails to encode leaves the stream state as it was and the frames
// appended before it intact.
func (e *Encoder) append(f *Frame) error {
	if e.joins(f) {
		w := wbuf{b: e.buf, st: e.st}
		w.st.seq = f.Seq
		w.payload(f)
		if w.err != nil {
			return w.err
		}
		e.buf, e.st = w.b, w.st
		e.n++
		return nil
	}
	e.close()
	start := len(e.buf)
	w := wbuf{b: append(e.buf, make([]byte, maxLenPrefix)...), st: e.st}
	w.frame(f)
	if w.err != nil {
		return w.err
	}
	if n := len(w.b) - start - maxLenPrefix + crcLen; n > maxFrameLen {
		return fmt.Errorf("federate: frame length %d exceeds limit %d", n, maxFrameLen)
	}
	e.buf, e.open, e.base, e.st, e.n = w.b, start, e.st, w.st, 1
	if f.Type != FrameEvent {
		e.close()
	}
	return nil
}

// joins reports whether f extends the open run: its version, type and
// (Site, Epoch), the next Seq, and room for one more entry. Anything else
// closes the run first, and so does a flush.
func (e *Encoder) joins(f *Frame) bool {
	if e.n == 0 || e.n == maxRun || f.Site != e.st.site || f.Epoch != e.st.epoch || f.Seq != e.st.seq+1 {
		return false
	}
	hdr := e.buf[e.open+maxLenPrefix]
	return int(hdr>>4) == f.V && int(hdr&headerTypeMask) == slices.Index(frameTypes[:], f.Type)
}

// close ends the open frame: its CRC, taken against the stream state it
// opened on, then the length prefix as wide as the length needs, closing
// the gap in front of the frame.
func (e *Encoder) close() {
	if e.n == 0 {
		return
	}
	body := e.open + maxLenPrefix
	e.buf = binary.LittleEndian.AppendUint32(e.buf, e.base.crc(e.buf[body:]))
	k := binary.PutUvarint(e.buf[e.open:], uint64(len(e.buf)-body))
	e.buf = append(e.buf[:e.open+k], e.buf[body:]...)
	e.n = 0
}

func (e *Encoder) flush() error {
	e.close()
	_, err := e.w.Write(e.buf)
	if cap(e.buf) > maxRetainedBuf {
		e.buf = nil
	} else {
		e.buf = e.buf[:0]
	}
	return err
}

// wbuf appends wire primitives to a byte slice, advancing its copy of the
// stream state. The first failure sticks in err for the frame's caller.
type wbuf struct {
	b   []byte
	err error
	st  stream
}

func (w *wbuf) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("federate: encode frame: "+format, args...)
	}
}

func (w *wbuf) u8(v byte)        { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16)     { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32)     { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *wbuf) varint(v int)     { w.b = binary.AppendVarint(w.b, int64(v)) }

func (w *wbuf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// flags packs presence bits, bit i set when on[i] holds.
func flags(on ...bool) (b byte) {
	for i, v := range on {
		if v {
			b |= 1 << i
		}
	}
	return b
}

// times writes each non-zero time as a delta; the caller has already
// written the presence bits that tell the decoder which ones follow.
func (w *wbuf) times(ts ...time.Time) {
	for _, t := range ts {
		if t.IsZero() {
			continue
		}
		if t.Before(minWireTime) || t.After(maxWireTime) {
			w.fail("time %s outside the int64-nanosecond range", t.Format(time.RFC3339))
		}
		w.b = binary.AppendVarint(w.b, int64(uint64(t.UnixNano())-uint64(w.st.ns)))
		w.st.ns = t.UnixNano()
	}
}

// seq writes Seq as its distance past the stream's previous one, less one.
func (w *wbuf) seq(s uint64) {
	w.b = binary.AppendVarint(w.b, int64(s-w.st.seq-1))
	w.st.seq = s
}

func (w *wbuf) key(k core.ServiceKey) {
	w.u32(uint32(k.Addr))
	w.u8(uint8(k.Proto))
	w.u16(k.Port)
}

func (w *wbuf) prov(p core.Provenance) {
	if !p.Valid() {
		w.fail("unknown provenance %d", uint8(p))
	}
	w.u8(uint8(p))
}

// frame writes f's header, envelope and body; the CRC waits for the
// encoder to close the frame.
func (w *wbuf) frame(f *Frame) {
	if f.V < 1 || f.V > 15 {
		w.fail("version %d does not fit the header", f.V)
		return
	}
	start := len(w.b)
	w.u8(0) // the header, filled in once the switch below has named the type code
	envelope := f.Site != w.st.site || f.Epoch != w.st.epoch
	if envelope {
		w.str(string(f.Site))
		w.u64(f.Epoch)
		w.st.site, w.st.epoch = f.Site, f.Epoch
	}
	code := slices.Index(frameTypes[:], f.Type) // 0 or -1 when unknown
	switch code {
	case codeHello:
		w.u8(flags(f.Resumed))
	case codeResume:
		if f.Resume == nil {
			w.fail("resume frame without cursor")
			return
		}
		w.u64(f.Resume.Epoch)
		w.uvarint(f.Resume.Seq)
		w.str(f.Token)
	case codeHeartbeat:
	case codeEvent, codeSnapshot, codeSeal:
		w.seq(f.Seq)
		w.payload(f)
	default:
		w.fail("unknown frame type %q", f.Type)
		return
	}
	w.b[start] = byte(f.V<<4 | code)
	if envelope {
		w.b[start] |= headerEnvelope
	}
}

// payload writes a sequenced frame's body past its seq: all a later entry
// of a run consists of.
func (w *wbuf) payload(f *Frame) {
	switch {
	case f.Type == FrameEvent && f.Event != nil:
		w.event(f.Event)
	case f.Type != FrameEvent && f.Snapshot != nil:
		w.snapshot(f.Snapshot)
	default:
		w.fail("%s frame without payload", f.Type)
	}
}

func (w *wbuf) event(ev *core.Event) {
	if !ev.Kind.Valid() {
		w.fail("unknown event kind %d", uint8(ev.Kind))
	}
	hasKey := ev.Key != core.ServiceKey{} || ev.Provenance != 0
	hasScanner := ev.Scanner != core.ScannerInfo{}
	hasScan := ev.Scan != core.ScanMeta{}
	w.u8(uint8(ev.Kind))
	w.u8(flags(!ev.Time.IsZero(), hasKey, hasScanner, hasScan, ev.Truncated,
		!ev.PassiveAt.IsZero(), !ev.ActiveAt.IsZero()))
	w.times(ev.Time, ev.PassiveAt, ev.ActiveAt)
	if hasKey {
		w.key(ev.Key)
		w.prov(ev.Provenance)
	}
	if hasScanner {
		w.scanner(&ev.Scanner)
	}
	if hasScan {
		w.scan(&ev.Scan)
	}
}

func (w *wbuf) retraction(r *Retraction) {
	w.key(r.Key)
	w.prov(r.Prov)
	w.u8(flags(!r.At.IsZero()))
	w.times(r.At)
}

func (w *wbuf) scanner(s *core.ScannerInfo) {
	w.u32(uint32(s.Source))
	w.u8(flags(!s.Window.IsZero()))
	w.times(s.Window)
	w.varint(s.UniqueDsts)
	w.varint(s.RstDsts)
}

func (w *wbuf) scan(s *core.ScanMeta) {
	w.varint(s.ID)
	w.u8(flags(!s.Started.IsZero(), !s.Finished.IsZero()))
	w.times(s.Started, s.Finished)
}

func (w *wbuf) snapshot(s *Snapshot) {
	w.varint(s.Packets)
	w.u8(flags(len(s.Services) > 0, len(s.Scanners) > 0, len(s.Scans) > 0, len(s.Retractions) > 0))
	w.count(len(s.Services))
	for i := range s.Services {
		svc := &s.Services[i]
		w.key(svc.Key)
		w.prov(svc.Provenance)
		w.u8(flags(!svc.PassiveAt.IsZero(), !svc.ActiveAt.IsZero()))
		w.times(svc.PassiveAt, svc.ActiveAt)
		w.varint(svc.Flows)
		w.varint(svc.Clients)
	}
	w.count(len(s.Scanners))
	for i := range s.Scanners {
		w.scanner(&s.Scanners[i])
	}
	w.count(len(s.Scans))
	for i := range s.Scans {
		w.scan(&s.Scans[i])
	}
	w.count(len(s.Retractions))
	for i := range s.Retractions {
		w.retraction(&s.Retractions[i])
	}
}

// count writes a list's length; an empty list, left out of the lists
// byte, has none.
func (w *wbuf) count(n int) {
	if n > 0 {
		w.uvarint(uint64(n))
	}
}

// The smallest encodings of the snapshot's list entries, which bound how
// many of them a body of a given size can hold (see rbuf.count).
const (
	minServiceLen    = 7 + 1 + 1 + 1 + 1
	minScannerLen    = 4 + 1 + 1 + 1
	minScanLen       = 1 + 1
	minRetractionLen = 7 + 1 + 1
)

// Decoder reads frames written by Encoder. It is hardened against a
// hostile peer: the body buffer grows only as bytes actually arrive, so a
// length prefix claiming a quarter gigabyte costs a few KiB on a stream
// that ends two bytes later, and every frame's CRC is checked
// before a byte of it is believed. Not safe for concurrent readers.
type Decoder struct {
	r   *bufio.Reader
	buf []byte
	st  stream
	off int64
	// queue holds the frames of the last run not yet returned.
	queue []*Frame
}

// NewDecoder wraps a reader.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Offset is the stream position just past the last wire frame read —
// where the wire frame Decode reads next, or just failed on, begins. A
// run's wire frame is counted whole when Decode returns its first frame;
// the frames queued behind it move Offset by nothing.
func (d *Decoder) Offset() int64 { return d.off }

// Decode returns the next frame queued from the last run, or else the
// first of the next wire frame, which is checked and decoded whole first:
// a run damaged anywhere yields none of its frames. It returns io.EOF when
// the stream ends cleanly at a frame boundary and io.ErrUnexpectedEOF when
// it ends inside a frame; any other malformation (oversized frame, version
// mismatch, CRC mismatch, unknown enum, short or overlong body, a run past
// maxRun) is a descriptive error, after which the stream is not
// resynchronizable.
func (d *Decoder) Decode() (*Frame, error) {
	if len(d.queue) > 0 {
		f := d.queue[0]
		d.queue = d.queue[1:]
		return f, nil
	}
	n, width, err := d.readLen()
	if err != nil {
		return nil, err
	}
	if n > maxFrameLen {
		return nil, fmt.Errorf("federate: frame length %d exceeds limit %d", n, maxFrameLen)
	}
	if n < 1+crcLen {
		return nil, fmt.Errorf("federate: frame length %d is shorter than an empty frame", n)
	}
	hdr, err := d.r.ReadByte()
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	if v := int(hdr >> 4); v != WireVersion {
		return nil, fmt.Errorf("federate: wire version %d, want %d", v, WireVersion)
	}
	// Read the claimed length in steps no larger than what has already
	// arrived (4 KiB to start), so the buffer is never more than twice
	// the bytes the peer actually sent.
	buf := append(d.buf[:0], hdr)
	for need := int(n); len(buf) < need; {
		chunk := min(need-len(buf), max(len(buf), 4<<10))
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(d.r, buf[start:]); err != nil {
			return nil, unexpectedEOF(err)
		}
	}
	if cap(buf) <= maxRetainedBuf {
		d.buf = buf
	} else {
		d.buf = nil
	}
	body, sum := buf[:len(buf)-crcLen], binary.LittleEndian.Uint32(buf[len(buf)-crcLen:])
	if got := d.st.crc(body); got != sum {
		return nil, fmt.Errorf("federate: frame checksum %08x, frame says %08x", got, sum)
	}
	r := rbuf{b: body[1:], st: d.st}
	run := r.frame(hdr, d.queue[:0])
	if r.err != nil {
		return nil, r.err
	}
	d.st = r.st
	d.off += int64(width) + int64(n)
	d.queue = run[1:]
	return run[0], nil
}

// readLen reads a frame's uvarint length prefix and how many bytes it
// took. A padded prefix (0x85 0x00 for 5) is refused: the encoder never
// writes one, and a stream is only ever one sequence of bytes.
func (d *Decoder) readLen() (n uint64, width int, err error) {
	for shift := uint(0); ; shift += 7 {
		b, err := d.r.ReadByte()
		if err != nil {
			if width > 0 {
				err = unexpectedEOF(err)
			}
			return 0, 0, err
		}
		width++
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		if width == binary.MaxVarintLen32 {
			return 0, 0, fmt.Errorf("federate: frame length prefix runs past %d bytes", width)
		}
	}
	if width != uvarintLen(n) {
		return 0, 0, fmt.Errorf("federate: frame length %d padded to a %d-byte prefix", n, width)
	}
	return n, width, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// uvarintLen is how many bytes v's uvarint encoding takes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

var errShortBody = errors.New("federate: decode frame: body ends inside a field")

// rbuf consumes a CRC-verified frame body, advancing its copy of the stream
// state. The first failure sticks in err; reads past it return zeros.
type rbuf struct {
	b   []byte
	err error
	st  stream
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("federate: decode frame: "+format, args...)
	}
}

func (r *rbuf) short() {
	if r.err == nil {
		r.err = errShortBody
	}
}

// take returns the next n bytes, or nil (and fails) when fewer remain.
func (r *rbuf) take(n int) []byte {
	if r.err != nil || n > len(r.b) {
		r.short()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *rbuf) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *rbuf) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *rbuf) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *rbuf) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.short()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rbuf) varint() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.short()
		return 0
	}
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *rbuf) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.short()
		return ""
	}
	return string(r.take(int(n)))
}

// flags reads a flag byte of which only the low n bits may be set.
func (r *rbuf) flags(n int) byte {
	b := r.u8()
	if b>>n != 0 {
		r.fail("unknown flag bits %#02x", b)
	}
	return b
}

// delta reads one signed varint the stream state advances by, refusing
// any spelling but the shortest (padded, or past 64 bits).
func (r *rbuf) delta(what string) uint64 {
	v, n := binary.Varint(r.b)
	switch {
	case n == 0:
		n = len(r.b) + 1 // the body ends inside it: take reports it short
	case n != uvarintLen(uint64(v<<1^v>>63)):
		r.fail("overlong %s delta varint", what)
	}
	r.take(n)
	return uint64(v)
}

func (r *rbuf) seq() uint64 {
	r.st.seq += r.delta("seq") + 1
	return r.st.seq
}

// time reads one timestamp if its presence bit is set.
func (r *rbuf) time(present bool) time.Time {
	if !present {
		return time.Time{}
	}
	r.st.ns += int64(r.delta("time"))
	return time.Unix(0, r.st.ns).UTC()
}

// count reads the length of a list the lists byte marks present (none
// when it does not), and refuses zero, the empty list's spelling, and one
// the rest of the body could not hold, so a hostile count cannot size an
// allocation.
func (r *rbuf) count(present byte, minEntry int) int {
	if present == 0 {
		return 0
	}
	n := r.uvarint()
	if n == 0 || n > uint64(len(r.b)/minEntry) {
		r.fail("list of %d entries in %d remaining bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *rbuf) key() core.ServiceKey {
	return core.ServiceKey{Addr: netaddr.V4(r.u32()), Proto: packet.IPProtocol(r.u8()), Port: r.u16()}
}

func (r *rbuf) prov() core.Provenance {
	p := core.Provenance(r.u8())
	if !p.Valid() {
		r.fail("unknown provenance %d", uint8(p))
	}
	return p
}

// frame decodes a CRC-verified wire frame's header and body, appending its
// frames to out: one, or every entry of a run.
func (r *rbuf) frame(hdr byte, out []*Frame) []*Frame {
	code := hdr & headerTypeMask
	if frameTypes[code] == "" {
		r.fail("unknown frame type code %d", code)
		return out
	}
	if hdr&headerEnvelope != 0 {
		r.st.site = SiteID(r.str())
		r.st.epoch = r.u64()
	}
	f := &Frame{V: WireVersion, Type: frameTypes[code], Site: r.st.site, Epoch: r.st.epoch}
	switch code {
	case codeHello:
		f.Resumed = r.flags(1) != 0
	case codeResume:
		f.Resume = &ResumeCursor{Epoch: r.u64(), Seq: r.uvarint()}
		f.Token = r.str()
	case codeHeartbeat:
	default:
		f.Seq = r.seq()
		r.payload(f)
		for code == codeEvent && len(r.b) > 0 && r.err == nil {
			if len(out) == maxRun-1 {
				r.fail("run of more than %d frames", maxRun)
				break
			}
			out = append(out, f)
			f = &Frame{V: WireVersion, Type: f.Type, Site: f.Site, Epoch: f.Epoch, Seq: f.Seq + 1}
			r.st.seq = f.Seq
			r.payload(f)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes in %s frame", len(r.b), f.Type)
	}
	return append(out, f)
}

// payload reads a sequenced frame's body past its seq.
func (r *rbuf) payload(f *Frame) {
	if f.Type == FrameEvent {
		f.Event = new(core.Event)
		r.event(f.Event)
	} else {
		f.Snapshot = new(Snapshot)
		r.snapshot(f.Snapshot)
	}
}

func (r *rbuf) event(ev *core.Event) {
	ev.Kind = core.EventKind(r.u8())
	if !ev.Kind.Valid() {
		r.fail("unknown event kind %d", uint8(ev.Kind))
	}
	fl := r.flags(7)
	ev.Time = r.time(fl&1 != 0)
	ev.PassiveAt = r.time(fl&32 != 0)
	ev.ActiveAt = r.time(fl&64 != 0)
	if fl&2 != 0 {
		ev.Key = r.key()
		ev.Provenance = r.prov()
	}
	if fl&4 != 0 {
		r.scanner(&ev.Scanner)
	}
	if fl&8 != 0 {
		r.scan(&ev.Scan)
	}
	ev.Truncated = fl&16 != 0
}

func (r *rbuf) retraction(rt *Retraction) {
	rt.Key = r.key()
	rt.Prov = r.prov()
	rt.At = r.time(r.flags(1) != 0)
}

func (r *rbuf) scanner(s *core.ScannerInfo) {
	s.Source = netaddr.V4(r.u32())
	s.Window = r.time(r.flags(1) != 0)
	s.UniqueDsts = r.varint()
	s.RstDsts = r.varint()
}

func (r *rbuf) scan(s *core.ScanMeta) {
	s.ID = r.varint()
	fl := r.flags(2)
	s.Started = r.time(fl&1 != 0)
	s.Finished = r.time(fl&2 != 0)
}

func (r *rbuf) snapshot(s *Snapshot) {
	s.Packets = r.varint()
	lists := r.flags(4)
	if n := r.count(lists&1, minServiceLen); n > 0 {
		s.Services = make([]SnapshotService, n)
		for i := range s.Services {
			svc := &s.Services[i]
			svc.Key = r.key()
			svc.Provenance = r.prov()
			fl := r.flags(2)
			svc.PassiveAt = r.time(fl&1 != 0)
			svc.ActiveAt = r.time(fl&2 != 0)
			svc.Flows = r.varint()
			svc.Clients = r.varint()
		}
	}
	if n := r.count(lists&2, minScannerLen); n > 0 {
		s.Scanners = make([]core.ScannerInfo, n)
		for i := range s.Scanners {
			r.scanner(&s.Scanners[i])
		}
	}
	if n := r.count(lists&4, minScanLen); n > 0 {
		s.Scans = make([]core.ScanMeta, n)
		for i := range s.Scans {
			r.scan(&s.Scans[i])
		}
	}
	if n := r.count(lists&8, minRetractionLen); n > 0 {
		s.Retractions = make([]Retraction, n)
		for i := range s.Retractions {
			r.retraction(&s.Retractions[i])
		}
	}
}
