package federate

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

func testKey(addr uint32, proto uint8, port uint16) core.ServiceKey {
	return core.ServiceKey{Addr: netaddr.V4(addr), Proto: packet.IPProtocol(proto), Port: port}
}

// sampleFrames covers every frame type, every event kind and every
// snapshot list once, in the order a real conversation would carry them
// (the resume hello travels the other way, but the codec does not care).
func sampleFrames() []Frame {
	base := time.Date(2006, 12, 16, 10, 0, 0, 123456789, time.UTC)
	key := testKey(0x807D0107, 6, 443)
	ev1 := core.Event{Kind: core.EventServiceDiscovered, Time: base, Key: key, Provenance: core.PassiveOnly}
	ev2 := core.Event{Kind: core.EventProvenanceUpgraded, Time: base.Add(time.Hour), Key: key, Provenance: core.PassiveFirst,
		PassiveAt: base, ActiveAt: base.Add(time.Hour)}
	ev3 := core.Event{Kind: core.EventScannerDetected, Time: base.Add(2 * time.Hour),
		Scanner: core.ScannerInfo{Source: netaddr.MustParseV4("211.1.1.1"), Window: base, UniqueDsts: 150, RstDsts: 120}}
	ev4 := core.Event{Kind: core.EventScanCompleted, Time: base.Add(3 * time.Hour),
		Scan: core.ScanMeta{ID: 7, Started: base, Finished: base.Add(3 * time.Hour)}, Truncated: true}
	snap := &Snapshot{
		Services: []SnapshotService{
			{Key: key, Provenance: core.PassiveFirst, PassiveAt: base, ActiveAt: base.Add(time.Minute), Flows: 42, Clients: 7},
			{Key: testKey(0x807D0200, 17, 53), Provenance: core.PassiveOnly, PassiveAt: base.Add(time.Second), Flows: 3, Clients: 1},
		},
		Scanners:    []core.ScannerInfo{{Source: netaddr.MustParseV4("211.1.1.1"), Window: base, UniqueDsts: 150, RstDsts: 120}},
		Scans:       []core.ScanMeta{{ID: 7, Started: base, Finished: base.Add(3 * time.Hour)}},
		Retractions: []Retraction{{Key: testKey(0x807D0300, 6, 22), At: base.Add(-time.Hour), Prov: core.ActiveOnly}},
		Packets:     100000,
	}
	seal := &Snapshot{
		Services:    snap.Services[:1],
		Scanners:    snap.Scanners,
		Scans:       snap.Scans,
		Retractions: []Retraction{{Key: testKey(0x807D0200, 17, 53), At: base.Add(4 * time.Hour), Prov: core.PassiveOnly}},
		Packets:     100500,
	}
	return []Frame{
		{V: WireVersion, Type: FrameResume, Token: "s3cret", Resume: &ResumeCursor{Epoch: 1166263200e9, Seq: 11}},
		{V: WireVersion, Type: FrameHello, Site: "east", Epoch: 1166263200e9, Resumed: true},
		{V: WireVersion, Type: FrameSnapshot, Site: "east", Epoch: 1166263200e9, Seq: 12, Snapshot: snap},
		{V: WireVersion, Type: FrameEvent, Site: "east", Epoch: 1166263200e9, Seq: 13, Event: &ev1},
		{V: WireVersion, Type: FrameEvent, Site: "east", Epoch: 1166263200e9, Seq: 14, Event: &ev2},
		{V: WireVersion, Type: FrameEvent, Site: "east", Epoch: 1166263200e9, Seq: 15, Event: &ev3},
		{V: WireVersion, Type: FrameEvent, Site: "east", Epoch: 1166263200e9, Seq: 16, Event: &ev4},
		{V: WireVersion, Type: FrameHeartbeat, Site: "east", Epoch: 1166263200e9},
		{V: WireVersion, Type: FrameSeal, Site: "east", Epoch: 1166263200e9, Seq: 17, Snapshot: seal},
	}
}

// encodeFrames renders frames in wire form through one encoder, the way a
// connection would carry them, each frame flushed on its own.
func encodeFrames(tb testing.TB, frames ...Frame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			tb.Fatalf("encode frame %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// encodeBursts renders bursts through one encoder, each burst's frames
// appended and then flushed once — the way Publisher.ServeConn writes the
// frames queued on a reader.
func encodeBursts(tb testing.TB, bursts ...[]Frame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, frames := range bursts {
		for i := range frames {
			if err := enc.append(&frames[i]); err != nil {
				tb.Fatalf("append frame %d: %v", i, err)
			}
		}
		if err := enc.flush(); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// steadyEvents returns n discovery event frames of one site, consecutive
// from seq and 2 µs apart: a burst a seal publishes on a live feed.
func steadyEvents(site SiteID, epoch, seq uint64, n int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		ev := core.Event{Kind: core.EventServiceDiscovered, Time: retBase.Add(time.Duration(i) * 2 * time.Microsecond),
			Key: testKey(0x807D0000+uint32(i), 6, 80), Provenance: core.PassiveOnly}
		frames[i] = Frame{V: WireVersion, Type: FrameEvent, Site: site, Epoch: epoch, Seq: seq + uint64(i), Event: &ev}
	}
	return frames
}

// rawFrame hand-assembles one wire frame — length prefix, header, body,
// a correct CRC — for bodies no Encoder would produce.
func rawFrame(hdr byte, body ...byte) []byte {
	payload := append([]byte{hdr}, body...)
	payload = binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, castagnoli))
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// TestWireRoundTrip encodes a stream of every frame shape and decodes it
// back to deeply equal frames.
func TestWireRoundTrip(t *testing.T) {
	frames := sampleFrames()
	wire := encodeFrames(t, frames...)
	dec := NewDecoder(bytes.NewReader(wire))
	for i := range frames {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(&frames[i], got) {
			t.Errorf("frame %d did not round-trip:\n in: %+v\nout: %+v", i, frames[i], *got)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected clean EOF at stream end, got %v", err)
	}
	if dec.Offset() != int64(len(wire)) {
		t.Errorf("decoder offset %d after a %d-byte stream", dec.Offset(), len(wire))
	}
}

// TestWireFrameSizes pins what the format costs: a steady-feed discovery
// event — the frame the federation link carries once per service, here the
// next sequence number 2 µs after the previous event — flushed alone, and
// joining a run; a five-event burst's per-event share; and a snapshot's
// per-service share.
func TestWireFrameSizes(t *testing.T) {
	frames := sampleFrames()
	next := *frames[3].Event
	next.Key.Port, next.Time = 8080, next.Time.Add(2*time.Microsecond)
	steady := Frame{V: WireVersion, Type: FrameEvent, Site: "east", Epoch: frames[3].Epoch, Seq: 14, Event: &next}
	if n := len(encodeFrames(t, frames[1], frames[3], steady)) - len(encodeFrames(t, frames[1], frames[3])); n != 19 {
		t.Errorf("a steady-feed discovery event flushed alone takes %d bytes, want 19", n)
	}
	if n := len(encodeBursts(t, []Frame{frames[1], frames[3], steady})) - len(encodeBursts(t, []Frame{frames[1], frames[3]})); n != 12 {
		t.Errorf("a steady-feed discovery event joining a run takes %d bytes, want 12", n)
	}
	// A seal's burst on a live feed, behind the event before it.
	evs := steadyEvents(frames[1].Site, frames[1].Epoch, 1, 6)
	lead := encodeFrames(t, frames[1], evs[0])
	if per := float64(len(encodeBursts(t, []Frame{frames[1], evs[0]}, evs[1:]))-len(lead)) / 5; per > 13.5 {
		t.Errorf("a five-event burst takes %.2f bytes per event, want <= 13.5", per)
	}
	snap := &Snapshot{Services: make([]SnapshotService, 1000)}
	for i := range snap.Services {
		snap.Services[i] = SnapshotService{Key: testKey(0x807D0000+uint32(i), 6, 80), PassiveAt: retBase, Flows: 300, Clients: 40}
	}
	n := len(encodeFrames(t, Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Seq: 1, Snapshot: snap}))
	if per := float64(n) / float64(len(snap.Services)); per > 14 {
		t.Errorf("a passive-only snapshot service takes %.1f bytes, want <= 14", per)
	}
}

// decodeAll decodes every frame of a stream through one decoder and
// checks each against the frames that were encoded.
func decodeAll(t *testing.T, wire []byte, frames ...Frame) {
	t.Helper()
	dec := NewDecoder(bytes.NewReader(wire))
	for i := range frames {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(&frames[i], got) {
			t.Errorf("frame %d came back as %+v, want %+v", i, *got, frames[i])
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("after %d frames: %v, want EOF", len(frames), err)
	}
}

// wireFrameEnds walks a stream's length prefixes and returns the offset
// each wire frame ends at.
func wireFrameEnds(t *testing.T, wire []byte) []int64 {
	t.Helper()
	var ends []int64
	for off := 0; off < len(wire); {
		n, k := binary.Uvarint(wire[off:])
		if k <= 0 {
			t.Fatalf("no length prefix at offset %d", off)
		}
		off += k + int(n)
		ends = append(ends, int64(off))
	}
	return ends
}

// TestWireRuns appends bursts and flushes each once, pinning where a run
// forms and where it breaks: every frame decodes back exactly, Offset
// moves only onto wire-frame boundaries — by a whole run at its first
// frame, by nothing for the frames queued behind it — and the stream holds
// the expected number of wire frames.
func TestWireRuns(t *testing.T) {
	hello := Frame{V: WireVersion, Type: FrameHello, Site: "east", Epoch: 7}
	events := func(site SiteID, seq uint64, n int) []Frame { return steadyEvents(site, 7, seq, n) }
	seal := Frame{V: WireVersion, Type: FrameSeal, Site: "east", Epoch: 7, Seq: 3,
		Snapshot: &Snapshot{Retractions: []Retraction{{Key: keyA, At: retBase, Prov: core.PassiveOnly}}, Packets: 9}}
	cat := func(parts ...[]Frame) (out []Frame) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		burst []Frame
		wire  int
	}{
		{"hello then a run", cat([]Frame{hello}, events("east", 1, 5)), 2},
		{"envelope switch", cat(events("east", 1, 3), events("west", 4, 3)), 2},
		{"seq gap", cat(events("east", 1, 3), events("east", 5, 3)), 2},
		{"event seal event", cat(events("east", 1, 2), []Frame{seal}, events("east", 4, 2)), 3},
		{"hello inside a burst", cat(events("east", 1, 2), []Frame{hello}, events("east", 3, 2)), 3},
		{"255 events", events("east", 1, 255), 1},
		{"256 events", events("east", 1, 256), 1},
		{"257 events", events("east", 1, 257), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := encodeBursts(t, tc.burst)
			ends := wireFrameEnds(t, wire)
			if len(ends) != tc.wire {
				t.Errorf("%d frames went out as %d wire frames, want %d", len(tc.burst), len(ends), tc.wire)
			}
			dec := NewDecoder(bytes.NewReader(wire))
			next := 0
			for i := range tc.burst {
				before := dec.Offset()
				got, err := dec.Decode()
				if err != nil {
					t.Fatalf("decode frame %d: %v", i, err)
				}
				if !reflect.DeepEqual(&tc.burst[i], got) {
					t.Errorf("frame %d came back as %+v, want %+v", i, *got, tc.burst[i])
				}
				if off := dec.Offset(); off != before {
					if next == len(ends) || off != ends[next] {
						t.Fatalf("frame %d moved Offset %d → %d, off the wire-frame boundaries %v", i, before, off, ends)
					}
					next++
				}
			}
			if next != len(ends) {
				t.Errorf("Offset stopped at boundary %d of %d", next, len(ends))
			}
			if _, err := dec.Decode(); err != io.EOF {
				t.Errorf("after the burst: %v, want EOF", err)
			}
		})
	}
}

// TestStickyEnvelope interleaves two sites' hello, snapshot and live
// frames through ONE encoder/decoder pair — the west site's sequence
// numbers and times below the east's, so both go backwards at every
// switch: every frame must come back with its own site, epoch, sequence
// and times, and the envelope must cost bytes only where the site
// changes. The time delta wraps, a refused frame moves no base, and a
// delta spelled longer than the encoder would is refused by name.
func TestStickyEnvelope(t *testing.T) {
	site := func(id SiteID, epoch, seq uint64, at time.Time) []Frame {
		ev := core.Event{Kind: core.EventServiceDiscovered, Time: at, Key: keyA}
		later := core.Event{Kind: core.EventProvenanceUpgraded, Time: at.Add(time.Minute), Key: keyA,
			Provenance: core.ActiveFirst, PassiveAt: at.Add(time.Minute), ActiveAt: at.Add(-time.Hour)}
		return []Frame{
			{V: WireVersion, Type: FrameHello, Site: id, Epoch: epoch},
			{V: WireVersion, Type: FrameSnapshot, Site: id, Epoch: epoch, Seq: seq, Snapshot: &Snapshot{Packets: 9,
				Services: []SnapshotService{{Key: keyA, PassiveAt: at.Add(-time.Hour)}}}},
			{V: WireVersion, Type: FrameEvent, Site: id, Epoch: epoch, Seq: seq + 1, Event: &ev},
			{V: WireVersion, Type: FrameEvent, Site: id, Epoch: epoch, Seq: seq + 2, Event: &later},
		}
	}
	east, west := site("site-east", 111, 5, retBase), site("site-west", 222, 2, retBase.Add(-24*time.Hour))
	var frames []Frame
	for i := range east {
		frames = append(frames, east[i], west[i])
	}
	// A restarted publisher keeps its site and changes only the epoch.
	frames = append(frames, Frame{V: WireVersion, Type: FrameHello, Site: "site-west", Epoch: 333})
	decodeAll(t, encodeFrames(t, frames...), frames...)

	alone := len(encodeFrames(t, east[0], east[2])) - len(encodeFrames(t, east[0]))
	switched := len(encodeFrames(t, west[0], east[2])) - len(encodeFrames(t, west[0]))
	if want := alone + 1 + len("site-east") + 8; switched != want {
		t.Errorf("event after a site switch takes %d bytes, want %d (%d + envelope)", switched, want, alone)
	}

	// MaxInt64 → MinInt64 nanoseconds is a one-nanosecond step once the
	// subtraction wraps.
	eventAt := func(seq uint64, ns int64) Frame {
		return Frame{V: WireVersion, Type: FrameEvent, Site: "s", Seq: seq,
			Event: &core.Event{Kind: core.EventScanCompleted, Time: time.Unix(0, ns).UTC()}}
	}
	wrap := []Frame{eventAt(1, math.MaxInt64), eventAt(2, math.MinInt64)}
	decodeAll(t, encodeFrames(t, wrap...), wrap...)
	if n := len(encodeFrames(t, wrap...)) - len(encodeFrames(t, wrap[0])); n != 10 {
		t.Errorf("the wrapped time's frame takes %d bytes, want 10 (a one-byte delta)", n)
	}

	// A frame refused after its seq and time were written leaves both bases
	// where the previous frame put them.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	bad := core.Event{Kind: core.EventServiceDiscovered, Time: retBase.Add(time.Hour), Key: keyA, Provenance: core.Provenance(9)}
	good := []Frame{east[0], east[2], east[3]}
	for i := range good {
		if i == 2 {
			if err := enc.Encode(&Frame{V: WireVersion, Type: FrameEvent, Site: "site-east", Epoch: 111, Seq: 99, Event: &bad}); err == nil {
				t.Fatal("an unknown provenance encoded")
			}
		}
		if err := enc.Encode(&good[i]); err != nil {
			t.Fatal(err)
		}
	}
	if want := encodeFrames(t, good...); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("a refused frame moved the stream state:\n got %x\nwant %x", buf.Bytes(), want)
	}
	decodeAll(t, buf.Bytes(), good...)

	// A frame replayed on the wire is refused, not read as the next one
	// against bases it was not coded for.
	twice := encodeFrames(t, good[:2]...)
	twice = append(twice, twice[len(encodeFrames(t, good[0])):]...)
	dec := NewDecoder(bytes.NewReader(twice))
	for i := 0; i < 2; i++ {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	if f, err := dec.Decode(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("a replayed event frame decoded as %+v, %v; want a checksum error", f, err)
	}

	const hdr = WireVersion<<4 | codeEvent
	for name, tc := range map[string]struct {
		in   []byte
		want string
	}{
		"padded seq":     {rawFrame(hdr, 0x80, 0, 0, 0), "overlong seq delta varint"},
		"seq past 64":    {rawFrame(hdr, append(bytes.Repeat([]byte{0xff}, 9), 0x7f, 0, 0)...), "overlong seq delta varint"},
		"padded time":    {rawFrame(hdr, 0, 0, 1, 0x82, 0x80, 0), "overlong time delta varint"},
		"time past 64":   {rawFrame(hdr, append([]byte{0, 0, 1}, append(bytes.Repeat([]byte{0x80}, 10), 1)...)...), "overlong time delta varint"},
		"time cut short": {rawFrame(hdr, 0, 0, 1, 0x80), "body ends inside a field"},
	} {
		if _, err := NewDecoder(bytes.NewReader(tc.in)).Decode(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// TestWireTimes pins the time contract: zero, pre-1970 and
// nanosecond-precision times round-trip exactly (a zero time stays zero,
// whatever its location); a non-zero time the int64-nanosecond window
// cannot hold refuses to encode rather than wrapping.
func TestWireTimes(t *testing.T) {
	good := map[string]time.Time{
		"zero":        {},
		"zero-local":  time.Time{}.In(time.FixedZone("x", 3600)),
		"pre-1970":    time.Date(1931, 3, 4, 5, 6, 7, 89, time.UTC),
		"nanoseconds": time.Date(2006, 12, 16, 10, 0, 0, 999999999, time.UTC),
		"epoch":       time.Unix(0, 0),
		"earliest":    time.Unix(0, math.MinInt64),
		"latest":      time.Unix(0, math.MaxInt64),
		"zoned":       time.Date(2006, 12, 16, 10, 0, 0, 1, time.FixedZone("pst", -8*3600)),
	}
	for name, at := range good {
		in := Frame{V: WireVersion, Type: FrameEvent, Site: "s", Seq: 1, Event: &core.Event{Kind: core.EventScanCompleted, Time: at}}
		got, err := NewDecoder(bytes.NewReader(encodeFrames(t, in))).Decode()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		back := got.Event.Time
		if !back.Equal(at) || back.IsZero() != at.IsZero() || back.Location() != time.UTC {
			t.Errorf("%s: %v came back as %v", name, at, back)
		}
	}
	bad := map[string]time.Time{
		"year 1":         time.Time{}.Add(time.Nanosecond),
		"before window":  time.Unix(0, math.MinInt64).Add(-time.Nanosecond),
		"after window":   time.Unix(0, math.MaxInt64).Add(time.Nanosecond),
		"far future":     time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		"negative years": time.Date(-400, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for name, at := range bad {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		ev := core.Event{Kind: core.EventServiceDiscovered, Time: at, Key: keyA}
		err := enc.Encode(&Frame{V: WireVersion, Type: FrameEvent, Site: "s", Seq: 1, Event: &ev})
		if err == nil || buf.Len() != 0 {
			t.Errorf("%s: encoding %v gave %v and wrote %d bytes; want an error and nothing written", name, at, err, buf.Len())
		}
		// The refused frame must leave the encoder usable: the next frame
		// still opens the stream with its envelope.
		ev.Time = retBase
		if err := enc.Encode(&Frame{V: WireVersion, Type: FrameEvent, Site: "s", Seq: 1, Event: &ev}); err != nil {
			t.Fatalf("%s: encoder unusable after a refused frame: %v", name, err)
		}
		if got, err := NewDecoder(&buf).Decode(); err != nil || got.Site != "s" {
			t.Errorf("%s: frame after a refused one decoded as %+v, %v", name, got, err)
		}
	}
}

// TestDecodeTruncated verifies a stream cut mid-frame reports
// ErrUnexpectedEOF, not a clean end.
func TestDecodeTruncated(t *testing.T) {
	whole := encodeFrames(t, sampleFrames()[3])
	for _, cut := range []int{len(whole) / 2, len(whole) - 1, 3, 1} {
		dec := NewDecoder(bytes.NewReader(whole[:cut]))
		if _, err := dec.Decode(); err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: got %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestDecodeRejects verifies malformed prefixes, foreign versions, unknown
// enum values and dishonest bodies error out instead of being silently
// accepted — with a correct CRC, so it is the field check that refuses.
func TestDecodeRejects(t *testing.T) {
	const hdrEvent = WireVersion<<4 | codeEvent
	const hdrSnap = WireVersion<<4 | codeSnapshot
	key := []byte{1, 2, 3, 4, 6, 80, 0}
	hb := rawFrame(WireVersion<<4 | codeHeartbeat)
	// A run one entry past maxRun: seq, then minimal discovery events
	// (kind 0, no flags).
	overRun := append([]byte{0}, make([]byte, 2*(maxRun+1))...)
	cases := map[string]struct {
		in   []byte
		want string
	}{
		"huge frame":      {binary.AppendUvarint(nil, maxFrameLen+1), "exceeds limit"},
		"overlong prefix": {bytes.Repeat([]byte{0xff}, 11), "length prefix"},
		"padded prefix":   {append([]byte{hb[0] | 0x80, 0}, hb[1:]...), "padded to a 2-byte prefix"},
		"empty frame":     {[]byte{0}, "shorter than an empty frame"},
		"crc only":        {[]byte{4, 0, 0, 0, 0}, "shorter than an empty frame"},
		"bad version":     {rawFrame(9<<4|codeHello, 0), "wire version 9, want 7"},
		"v3 jsonl":        {[]byte(`63 {"v":3,"type":"hello","site":"east","seq":0,"event":null}` + "\n"), "wire version 3, want 7"},
		"v5 hello":        {rawFrame(5<<4|codeHello, 0), "wire version 5, want 7"},
		"v6 hello":        {rawFrame(6<<4|codeHello, 0), "wire version 6, want 7"},
		"type code 4":     {rawFrame(WireVersion<<4|4, 0), "unknown frame type code 4"},
		"bad crc":         {append(rawFrame(WireVersion<<4 | codeHeartbeat)[:2], 1, 2, 3, 4), "checksum"},
		"type code 0":     {rawFrame(WireVersion << 4), "unknown frame type code 0"},
		"empty seal":      {rawFrame(WireVersion<<4 | codeSeal), "body ends inside a field"},
		"run past maxRun": {rawFrame(hdrEvent, overRun...), "run of more than 256 frames"},
		"bad kind":        {rawFrame(hdrEvent, 1, 99, 0), "unknown event kind 99"},
		"bad provenance":  {rawFrame(hdrEvent, append([]byte{1, 0, 2}, append(key, 4)...)...), "unknown provenance 4"},
		"bad event flags": {rawFrame(hdrEvent, 1, 0, 0x80), "unknown flag bits"},
		"bad hello flags": {rawFrame(WireVersion<<4|codeHello, 2), "unknown flag bits"},
		"short body":      {rawFrame(hdrEvent, 0, 0, 1, 0x80, 0x80), "body ends inside a field"},
		"trailing bytes":  {rawFrame(WireVersion<<4|codeHeartbeat, 0), "trailing bytes"},
		"hostile count":   {rawFrame(hdrSnap, 1, 0, 1, 0xff, 0xff, 0xff, 0x7f), "entries in"},
		"listed empty":    {rawFrame(hdrSnap, 1, 0, 1, 0), "list of 0 entries"},
		"bad lists":       {rawFrame(hdrSnap, 1, 0, 0x10), "unknown flag bits"},
		"site past body":  {rawFrame(WireVersion<<4|headerEnvelope|codeHeartbeat, 200, 'x'), "body ends inside a field"},
	}
	for name, tc := range cases {
		_, err := NewDecoder(bytes.NewReader(tc.in)).Decode()
		if err == nil || err == io.EOF || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// TestEncodeRejects verifies the encoder refuses what the decoder would:
// a frame it cannot represent never reaches the wire.
func TestEncodeRejects(t *testing.T) {
	ev := core.Event{Kind: core.EventKind(99), Time: retBase}
	badProv := core.Event{Kind: core.EventServiceDiscovered, Time: retBase, Key: keyA, Provenance: core.Provenance(9)}
	cases := map[string]Frame{
		"unknown type":     {V: WireVersion, Type: "gossip", Site: "s"},
		"version 0":        {Type: FrameHello, Site: "s"},
		"version 16":       {V: 16, Type: FrameHello, Site: "s"},
		"resume no cursor": {V: WireVersion, Type: FrameResume},
		"event no payload": {V: WireVersion, Type: FrameEvent, Site: "s", Seq: 1},
		"seal no body":     {V: WireVersion, Type: FrameSeal, Site: "s", Seq: 1},
		"snapshot no body": {V: WireVersion, Type: FrameSnapshot, Site: "s", Seq: 1},
		"unknown kind":     {V: WireVersion, Type: FrameEvent, Site: "s", Seq: 1, Event: &ev},
		"unknown prov":     {V: WireVersion, Type: FrameEvent, Site: "s", Seq: 1, Event: &badProv},
	}
	for name, f := range cases {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(&f); err == nil || buf.Len() != 0 {
			t.Errorf("%s: Encode = %v with %d bytes written; want an error and none", name, err, buf.Len())
		}
	}
}

// TestBitFlipsRejected is the CRC's contract: flip any single bit of an
// encoded event, snapshot, seal or resume frame, or of a
// five-event run, and the decoder refuses the frame — it never becomes a
// different address or sequence number, and no frame of a damaged run is
// returned — so an aggregator fed the damaged stream ends byte-identical
// to one that was fed nothing past the frames before it.
func TestBitFlipsRejected(t *testing.T) {
	frames := sampleFrames()
	prelude := encodeFrames(t, frames[1]) // the hello that names site and epoch
	targets := [][]Frame{frames[0:1], frames[2:3], frames[3:4], frames[8:9],
		steadyEvents(frames[1].Site, frames[1].Epoch, 20, 5)}
	for _, burst := range targets {
		// Each target is encoded behind the hello, as on a live stream, so
		// it carries no envelope of its own.
		target := encodeBursts(t, frames[1:2], burst)[len(prelude):]
		ref := seedAggregator(t)
		if err := ref.Apply(&frames[1]); err != nil {
			t.Fatal(err)
		}
		want := ref.Dump()
		for bit := 0; bit < 8*len(target); bit++ {
			damaged := append([]byte(nil), target...)
			damaged[bit/8] ^= 1 << (bit % 8)
			agg := seedAggregator(t)
			dec := NewDecoder(io.MultiReader(bytes.NewReader(prelude), bytes.NewReader(damaged)))
			if hello, err := dec.Decode(); err != nil || agg.Apply(hello) != nil {
				t.Fatalf("prelude hello: %v", err)
			}
			if f, err := dec.Decode(); err == nil {
				t.Fatalf("%d-frame %s burst with bit %d flipped decoded as %+v", len(burst), burst[0].Type, bit, f)
			}
			if got := agg.Dump(); !bytes.Equal(got, want) {
				t.Fatalf("%d-frame %s burst with bit %d flipped changed the dump", len(burst), burst[0].Type, bit)
			}
		}
	}
}

// TestHostilePrefixAllocatesLittle pins the decoder's defence against a
// length prefix that lies: neither a prefix past the cap nor one claiming
// the full 256 MiB in front of a two-byte stream may size an allocation
// (the contract is < 2 MiB; the decoder's doubling reads keep it to KiB).
func TestHostilePrefixAllocatesLittle(t *testing.T) {
	cases := map[string][]byte{
		"past the cap": binary.AppendUvarint(nil, maxFrameLen+1),
		"256 MiB then two bytes": append(binary.AppendUvarint(nil, maxFrameLen),
			WireVersion<<4|codeSnapshot, 0),
	}
	for name, in := range cases {
		// TotalAlloc is process-wide; the least of a few tries is the
		// decoder's own share.
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := NewDecoder(bytes.NewReader(in)).Decode()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: decoded", name)
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew >= 64<<10 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte stream, want < 64 KiB", name, grew, len(in))
		}
	}
}

// TestEventKindTextStable pins the text names of the event kinds, which
// /events, /query filters and feedcat output carry: a feed recorded today
// must parse forever, even if the constants are reordered.
func TestEventKindTextStable(t *testing.T) {
	want := map[core.EventKind]string{
		core.EventServiceDiscovered:  "service-discovered",
		core.EventProvenanceUpgraded: "provenance-upgraded",
		core.EventScannerDetected:    "scanner-detected",
		core.EventScanCompleted:      "scan-completed",
	}
	for kind, name := range want {
		text, err := kind.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if string(text) != name {
			t.Errorf("kind %d marshals to %q, want %q", kind, text, name)
		}
		var back core.EventKind
		if err := back.UnmarshalText([]byte(name)); err != nil {
			t.Fatalf("unmarshal %q: %v", name, err)
		}
		if back != kind {
			t.Errorf("%q unmarshals to %d, want %d", name, back, kind)
		}
	}
	if _, err := core.EventKind(99).MarshalText(); err == nil {
		t.Error("marshaling an unknown kind should error")
	}
	var k core.EventKind
	if err := k.UnmarshalText([]byte("event(3)")); err == nil {
		t.Error("unmarshaling an unknown name should error")
	}
}

// FuzzFrameRoundTrip builds event, snapshot and seal frames from fuzzed
// primitives and asserts decode returns a deeply equal frame and
// encode→decode→encode is byte-stable. Each frame rides behind a fuzzed
// predecessor event through the same encoder and decoder, so its sequence
// and time deltas start from a non-zero base; with burst set the two go
// through one append/flush, where they form a run when the frame is the
// predecessor's event successor.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(1166263200), uint32(0x807D0107), uint8(6), uint16(443), uint8(0), 42, 7, uint64(13), uint8(0), int64(1166263100), uint64(12), false)
	f.Add(uint8(1), int64(1166266800), uint32(0x807D0200), uint8(17), uint16(53), uint8(2), 3, 1, uint64(14), uint8(0), int64(1166266800), uint64(13), false)
	f.Add(uint8(2), int64(-1166270400), uint32(0xD3010101), uint8(47), uint16(0), uint8(1), 150, 120, uint64(15), uint8(1), int64(1166270400), uint64(90), false)
	f.Add(uint8(3), int64(math.MaxInt64), uint32(0), uint8(255), uint16(65535), uint8(3), -1, math.MinInt64, uint64(math.MaxUint64), uint8(1), int64(math.MinInt64), uint64(0), true)
	f.Add(uint8(4), int64(0), uint32(1), uint8(6), uint16(22), uint8(1), 0, 0, uint64(1), uint8(2), int64(-1), uint64(math.MaxUint64), false)
	f.Add(uint8(2), int64(math.MinInt64), uint32(9), uint8(1), uint16(0), uint8(0), 1<<40, -1<<40, uint64(1<<63), uint8(0), int64(math.MaxInt64), uint64(1<<63+1), true)
	f.Add(uint8(1), int64(1166263200), uint32(0x807D0107), uint8(6), uint16(80), uint8(3), 0, 0, uint64(20), uint8(0), int64(1166263199), uint64(19), false)
	// A run: an event whose Seq follows its predecessor's, in the same epoch
	// (the frame's epoch is seq^ns, the predecessor's prevSeq).
	f.Add(uint8(0), int64(1), uint32(0x807D0107), uint8(6), uint16(22), uint8(1), 0, 0, uint64(13), uint8(0), int64(1166263199), uint64(12), true)
	f.Fuzz(func(t *testing.T, kind uint8, ns int64, addr uint32, proto uint8, port uint16,
		prov uint8, n1, n2 int, seq uint64, shape uint8, prevNs int64, prevSeq uint64, burst bool) {
		// Enums are clamped into their valid domain — the codec's contract
		// is for valid frames; FuzzDecoderNoPanic covers hostile bytes.
		// Every int64 is a legal wire time except that zero nanoseconds
		// past the Unix epoch is not the zero time.Time.
		at, prevAt := time.Unix(0, ns).UTC(), time.Unix(0, prevNs).UTC()
		k := core.EventKind(kind % 5)
		p := core.Provenance(prov % 4)
		key := testKey(addr, proto, port)
		fr := Frame{V: WireVersion, Site: SiteID("fuzz"), Epoch: seq ^ uint64(ns), Seq: seq}
		switch shape % 3 {
		case 0:
			fr.Type = FrameEvent
			ev := core.Event{Kind: k, Time: at}
			switch k {
			case core.EventServiceDiscovered, core.EventProvenanceUpgraded, core.EventServiceExpired:
				ev.Key, ev.Provenance = key, p
				if k == core.EventProvenanceUpgraded {
					ev.PassiveAt, ev.ActiveAt = at, prevAt
				}
			case core.EventScannerDetected:
				ev.Scanner = core.ScannerInfo{Source: netaddr.V4(addr), Window: at, UniqueDsts: n1, RstDsts: n2}
			case core.EventScanCompleted:
				ev.Scan = core.ScanMeta{ID: n1, Started: at, Finished: at}
				ev.Truncated = n2%2 == 0
			}
			fr.Event = &ev
		default:
			fr.Type = FrameSnapshot
			fr.Snapshot = &Snapshot{
				Services: []SnapshotService{
					{Key: key, Provenance: p, PassiveAt: at, Flows: n1, Clients: n2},
					{Key: key, Provenance: p, ActiveAt: at},
				},
				Scanners:    []core.ScannerInfo{{Source: netaddr.V4(addr), Window: at, UniqueDsts: n1, RstDsts: n2}},
				Scans:       []core.ScanMeta{{ID: n1, Started: at, Finished: at}},
				Retractions: []Retraction{{Key: key, At: at, Prov: p}},
				Packets:     n2,
			}
			if shape%3 == 2 {
				fr.Type = FrameSeal
			}
		}
		prev := Frame{V: WireVersion, Type: FrameEvent, Site: fr.Site, Epoch: prevSeq, Seq: prevSeq,
			Event: &core.Event{Kind: core.EventServiceDiscovered, Time: prevAt, Key: key, Provenance: p}}

		encode := encodeFrames
		if burst {
			encode = func(tb testing.TB, frames ...Frame) []byte { return encodeBursts(tb, frames) }
		}
		first := encode(t, prev, fr)
		dec := NewDecoder(bytes.NewReader(first))
		var got [2]*Frame
		for i, want := range []*Frame{&prev, &fr} {
			var err error
			if got[i], err = dec.Decode(); err != nil {
				t.Fatalf("decode frame %d: %v", i, err)
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("round trip changed frame %d:\n in: %+v\nout: %+v", i, *want, *got[i])
			}
		}
		if again := encode(t, *got[0], *got[1]); !bytes.Equal(first, again) {
			t.Fatalf("round trip not byte-stable:\n in: %x\nout: %x", first, again)
		}
	})
}

// FuzzDecoderNoPanic feeds arbitrary bytes to the decoder: it must reject
// or accept them without panicking or over-allocating, and whatever it
// accepts must re-encode (the decoder admits nothing the encoder refuses).
func FuzzDecoderNoPanic(f *testing.F) {
	f.Add(encodeFrames(f, sampleFrames()...))
	f.Add([]byte("12 hello\n"))
	f.Add(binary.AppendUvarint(nil, 1<<60))
	f.Add(rawFrame(WireVersion<<4|codeSnapshot, 1, 0, 0xff, 0xff, 0xff, 0x7f))
	f.Add(encodeBursts(f, steadyEvents("east", 7, 1, 5)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		enc := NewEncoder(io.Discard)
		for i := 0; i < 1000; i++ {
			fr, err := dec.Decode()
			if err != nil {
				return
			}
			if err := enc.Encode(fr); err != nil {
				t.Fatalf("decoder accepted a frame the encoder refuses: %v\n%+v", err, fr)
			}
		}
	})
}
