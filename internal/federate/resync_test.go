package federate

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
)

// meteredConn counts the bytes a feed client pulls off the wire — the
// resume-vs-snapshot cost measurement.
type meteredConn struct {
	net.Conn
	n atomic.Int64
}

func (m *meteredConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	m.n.Add(int64(n))
	return n, err
}

// awaitCursor polls the aggregator's dedup cursor for one site until it
// reaches target, and reports whether it did within ten seconds.
func awaitCursor(agg *Aggregator, site SiteID, target uint64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, seq, ok := agg.SiteCursor(site); ok && seq >= target {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCursor is awaitCursor for the test's own goroutine: a stuck cursor
// ends the test.
func waitCursor(tb testing.TB, agg *Aggregator, site SiteID, target uint64) {
	tb.Helper()
	if !awaitCursor(agg, site, target) {
		_, seq, _ := agg.SiteCursor(site)
		tb.Fatalf("aggregator cursor for %s stuck at %d, want %d", site, seq, target)
	}
}

// runFeedOnce wires the client to the publisher over one in-memory
// connection, waits for the aggregator's cursor to reach target, and
// tears the connection down. It returns the bytes the client read.
func runFeedOnce(t *testing.T, agg *Aggregator, fc *FeedClient, pub *Publisher, target uint64) int64 {
	t.Helper()
	server, client := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = pub.ServeConn(ctx, server)
		server.Close()
	}()
	mc := &meteredConn{Conn: client}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = fc.RunConn(ctx, mc)
	}()
	waitCursor(t, agg, pub.Site(), target)
	cancel()
	<-done
	return mc.n.Load()
}

// TestResumeShipsDeltaNotInventory is the resume acceptance test: at a
// 100k-entry site, a reconnect after a short partition ships a snapshot of
// the O(missed-churn) keys changed past the cursor, not an O(inventory)
// one — visible in the byte counts and in the resume-hit /
// snapshot-fallback counters on both ends. Two partitions: one whose churn
// the site sealed while the reader was away, and one whose churn only the
// reconnect's own engine snapshot seals, so the reader gets its rows twice,
// in the resume snapshot and in the seal frame that snapshot set off.
func TestResumeShipsDeltaNotInventory(t *testing.T) {
	const resident = 100_000 // services in the inventory before the partition
	const churn = 200        // services discovered during each partition

	eng := core.NewShardedPassive(testCampus, nil, 4)
	pub := NewPublisherOpts("big-site", eng, PublisherOptions{})
	defer pub.Close()

	bld := packet.NewBuilder(0)
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	cli := packet.Endpoint{Addr: netaddr.MustParseV4("64.10.0.1"), Port: 33000}
	mkService := func(i int) *packet.Packet {
		// Two ports per address keeps 100k distinct keys inside the /16.
		srv := packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(i/2), Port: uint16(80 + i%2)}
		return bld.SynAck(base.Add(time.Duration(i)*time.Millisecond), srv, cli, 9, 8)
	}

	// Build the resident inventory in chunks.
	var batch []packet.Packet
	for i := 0; i < resident; i++ {
		batch = append(batch, *mkService(i))
		if len(batch) == 8192 || i == resident-1 {
			eng.HandleBatch(batch)
			batch = batch[:0]
		}
	}
	if seq := pub.State().Seq; seq != resident {
		t.Fatalf("the stream is at %d after %d discoveries", seq, resident)
	}

	agg := NewAggregator()
	fc := NewFeedClient(agg, "big-site-feed", FeedOptions{})

	// Connection 1: first contact, snapshot bootstrap — the O(inventory)
	// baseline.
	snapshotBytes := runFeedOnce(t, agg, fc, pub, uint64(resident))

	// A partition: churn services are discovered while disconnected, and
	// sealed there when sealed is set. The reconnect presents the cursor;
	// the bytes are counted through the last seal frame the churn sets off.
	partition := func(round int, sealed bool) int64 {
		from := resident + round*churn
		for i := 0; i < churn; i++ {
			batch = append(batch, *mkService(from + i))
		}
		target := pub.State().Seq + churn + 1 // the events, then the seal
		eng.HandleBatch(batch)
		batch = batch[:0]
		want := target - 1 // the reconnect's own engine snapshot seals
		if sealed {
			eng.Snapshot()
			want = target
		}
		if seq := pub.State().Seq; seq != want {
			t.Fatalf("the stream is at %d after the partition's churn, want %d", seq, want)
		}
		return runFeedOnce(t, agg, fc, pub, target)
	}
	// Each copy of the churn's rows costs about 14 bytes a row; the framing
	// and the hello fit in 64 bytes.
	for round, tc := range []struct {
		name   string
		sealed bool
		copies int64
	}{
		// Twice: in the resume snapshot, then in the seal frame the
		// reconnect's engine snapshot sets off.
		{"sealed at the reconnect", false, 2},
		// Once, in the resume snapshot.
		{"sealed during the partition", true, 1},
	} {
		resumeBytes := partition(round, tc.sealed)
		t.Logf("%s: snapshot bootstrap %d bytes; resume %d bytes (%.1fx)",
			tc.name, snapshotBytes, resumeBytes, float64(snapshotBytes)/float64(resumeBytes))
		if resumeBytes*20 >= snapshotBytes {
			t.Errorf("%s: resume shipped %d bytes against a %d-byte snapshot — not O(churn)",
				tc.name, resumeBytes, snapshotBytes)
		}
		if limit := tc.copies*14*churn + 64; resumeBytes > limit {
			t.Errorf("%s: resume shipped %d bytes for %d discoveries, want <= %d", tc.name, resumeBytes, churn, limit)
		}
	}
	ps := pub.Stats()
	if ps.ResumeHits != 2 || ps.SnapshotFallbacks != 1 {
		t.Errorf("publisher counters: resume=%d fallback=%d, want 2/1", ps.ResumeHits, ps.SnapshotFallbacks)
	}
	cs := fc.Stats()
	if cs.ResumeHits != 2 || cs.SnapshotFallbacks != 1 {
		t.Errorf("client counters: resume=%d fallback=%d, want 2/1", cs.ResumeHits, cs.SnapshotFallbacks)
	}

	// A resume ships O(churn) bytes but walks the whole inventory, one
	// key-tree lookup per row and tombstone: its time, beside a full
	// snapshot's, is logged rather than assumed.
	epoch, seq, _ := agg.SiteCursor(pub.Site())
	timed := func(cur ResumeCursor) time.Duration {
		t0 := time.Now()
		_, live, _ := pub.catchup(0, cur)
		defer live.Cancel()
		return time.Since(t0)
	}
	t.Logf("catchup at %d services: resume %v, full snapshot %v",
		resident+2*churn, timed(ResumeCursor{Epoch: epoch, Seq: seq}), timed(ResumeCursor{}))

	// Convergence: after the standard quiesce-and-final-attach seal
	// (events alone don't carry the snapshot-only flow/client weights;
	// the next snapshot heals them) the resumed aggregator's dump equals
	// a from-scratch bootstrap's.
	eng.Close()
	<-agg.Attach(pub)
	ref := NewAggregator()
	<-ref.Attach(pub)
	if got, want := agg.Dump(), ref.Dump(); !bytes.Equal(got, want) {
		t.Errorf("resumed aggregator diverges from snapshot bootstrap:\n%s", firstDiff(got, want))
	}
}

// TestResumeFallbacks pins every path that must refuse a resume: an
// epoch from another incarnation and a hostile cursor from the future.
func TestResumeFallbacks(t *testing.T) {
	site := newTestSite(0, 400)
	defer site.pub.Close()
	site.produce()
	site.eng.Flush()
	cur := site.pub.State()

	cases := []struct {
		name   string
		cursor ResumeCursor
	}{
		{"epoch-change", ResumeCursor{Epoch: cur.Epoch + 1, Seq: cur.Seq}},
		{"future-cursor", ResumeCursor{Epoch: cur.Epoch, Seq: cur.Seq + 1_000_000}},
		{"zero-cursor", ResumeCursor{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bootstrap, live, resumed := site.pub.catchup(0, tc.cursor)
			defer live.Cancel()
			if resumed {
				t.Fatalf("cursor %+v was resumed, want snapshot fallback", tc.cursor)
			}
			if len(bootstrap) != 2 || bootstrap[0].Type != FrameHello || bootstrap[1].Type != FrameSnapshot {
				t.Fatalf("fallback bootstrap = %d frames, want hello+snapshot", len(bootstrap))
			}
			if bootstrap[0].Resumed {
				t.Fatal("fallback hello claims Resumed")
			}
		})
	}

	t.Run("valid-cursor-resumes", func(t *testing.T) {
		bootstrap, live, resumed := site.pub.catchup(0, ResumeCursor{Epoch: cur.Epoch, Seq: cur.Seq})
		defer live.Cancel()
		if !resumed {
			t.Fatal("up-to-date cursor fell back to snapshot")
		}
		if len(bootstrap) != 2 || !bootstrap[0].Resumed || bootstrap[1].Type != FrameSnapshot || bootstrap[1].Seq < cur.Seq {
			t.Fatalf("resume bootstrap = %+v, want a Resumed hello and a snapshot at or past the cursor", bootstrap)
		}
	})
}

// TestFeedAuth pins the shared-token option: the right token serves, a
// wrong or missing one is a clean close before any frame, and a
// write-only peer (which cannot speak a hello) is refused outright.
func TestFeedAuth(t *testing.T) {
	site := newTestSite(1, 200)
	site.pub.Close()
	pub := NewPublisherOpts(site.id, site.eng, PublisherOptions{AuthToken: "s3cret"})
	defer pub.Close()
	site.produce()

	connect := func(token string) error {
		server, client := net.Pipe()
		defer client.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		serveErr := make(chan error, 1)
		go func() {
			err := pub.ServeConn(ctx, server)
			server.Close()
			serveErr <- err
		}()
		agg := NewAggregator()
		fc := NewFeedClient(agg, "authed", FeedOptions{AuthToken: token})
		runErr := make(chan error, 1)
		go func() { runErr <- fc.RunConn(ctx, client) }()
		select {
		case err := <-serveErr:
			if err != nil {
				return err // rejected before serving
			}
		case <-time.After(100 * time.Millisecond):
			// Still serving: the handshake was accepted.
		}
		if fc.Site() == "" {
			// Give the hello a moment to land.
			deadline := time.Now().Add(2 * time.Second)
			for fc.Site() == "" && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		if fc.Site() == "" {
			return fmt.Errorf("no hello received")
		}
		return nil
	}

	if err := connect("s3cret"); err != nil {
		t.Fatalf("correct token rejected: %v", err)
	}
	if err := connect("wrong"); err == nil {
		t.Fatal("wrong token was served")
	} else if !strings.Contains(err.Error(), "auth") {
		t.Fatalf("wrong token error = %v, want auth mismatch", err)
	}
	if err := connect(""); err == nil {
		t.Fatal("missing token was served")
	}
	if got := pub.Stats().AuthFailures; got != 2 {
		t.Errorf("AuthFailures = %d, want 2", got)
	}

	// A write-only peer cannot authenticate.
	var sink bytes.Buffer
	if err := pub.ServeConn(context.Background(), &sink); err == nil {
		t.Fatal("write-only peer served despite auth")
	}
	if sink.Len() != 0 {
		t.Errorf("write-only peer received %d bytes before auth refusal", sink.Len())
	}
}

// TestHostileHellos pins the hello gate: garbage bytes, a non-resume
// frame, and silence (hello timeout) all end the connection with zero
// frames served and a counted rejection.
func TestHostileHellos(t *testing.T) {
	site := newTestSite(2, 200)
	site.pub.Close()
	pub := NewPublisherOpts(site.id, site.eng, PublisherOptions{HelloTimeout: 100 * time.Millisecond})
	defer pub.Close()

	serve := func(send func(c net.Conn)) (served []byte, err error) {
		server, client := net.Pipe()
		defer client.Close()
		errc := make(chan error, 1)
		go func() {
			e := pub.ServeConn(context.Background(), server)
			server.Close()
			errc <- e
		}()
		go send(client)
		var buf bytes.Buffer
		_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
		b := make([]byte, 4096)
		for {
			n, rerr := client.Read(b)
			buf.Write(b[:n])
			if rerr != nil {
				break
			}
		}
		return buf.Bytes(), <-errc
	}

	if got, err := serve(func(c net.Conn) { c.Write([]byte("garbage not a frame\n")) }); err == nil {
		t.Fatal("garbage hello was served")
	} else if len(got) != 0 {
		t.Errorf("garbage hello still received %d bytes", len(got))
	}
	if _, err := serve(func(c net.Conn) {
		f := Frame{V: WireVersion, Type: FrameEvent, Site: "x", Epoch: 1, Seq: 1, Event: &core.Event{}}
		_ = NewEncoder(c).Encode(&f)
	}); err == nil {
		t.Fatal("event frame accepted as hello")
	}
	if _, err := serve(func(c net.Conn) { /* silence: hello timeout */ }); err == nil {
		t.Fatal("silent peer was served")
	}
	if got := pub.Stats().HellosRejected; got != 3 {
		t.Errorf("HellosRejected = %d, want 3", got)
	}
}

// v3Resume and v3Hello are what a wire-v3 (JSONL) peer puts on the link
// first, byte for byte.
const (
	v3Resume = `48 {"v":3,"type":"resume","resume":{"epoch":0,"seq":0}}` + "\n"
	v3Hello  = `50 {"v":3,"type":"hello","site":"east","epoch":12345}` + "\n" +
		`74 {"v":3,"type":"snapshot","site":"east","epoch":12345,"seq":1,"snapshot":{}}` + "\n"
)

// oldPeers are the earlier wire versions a peer may still speak: each
// one's client hello (a zero-cursor resume) and publisher hello. A wire-v4,
// v5 or v6 hello differs from this version's only in its header's version
// nibble.
var oldPeers = []struct {
	name          string
	resume, hello []byte
	want          string
}{
	{"v3", []byte(v3Resume), []byte(v3Hello), "wire version 3, want 7"},
	{"v4", rawFrame(4<<4|codeResume, make([]byte, 10)...),
		rawFrame(4<<4|headerEnvelope|codeHello, append(binary.LittleEndian.AppendUint64([]byte("\x04east"), 12345), 0)...),
		"wire version 4, want 7"},
	{"v5", rawFrame(5<<4|codeResume, make([]byte, 10)...),
		rawFrame(5<<4|headerEnvelope|codeHello, append(binary.LittleEndian.AppendUint64([]byte("\x04east"), 12345), 0)...),
		"wire version 5, want 7"},
	{"v6", rawFrame(6<<4|codeResume, make([]byte, 10)...),
		rawFrame(6<<4|headerEnvelope|codeHello, append(binary.LittleEndian.AppendUint64([]byte("\x04east"), 12345), 0)...),
		"wire version 6, want 7"},
}

// TestV3ClientRefused pins the publisher half of mixed-version refusal: an
// older aggregator's resume hello (v3 JSONL or v4 binary) is answered with
// a closed connection, not a byte of feed, an error naming both versions,
// and a HellosRejected count.
func TestV3ClientRefused(t *testing.T) {
	for _, peer := range oldPeers {
		t.Run(peer.name, func(t *testing.T) {
			site := newTestSite(3, 50)
			defer site.pub.Close()
			site.produce()

			server, client := net.Pipe()
			errc := make(chan error, 1)
			go func() {
				errc <- site.pub.ServeConn(context.Background(), server)
				server.Close()
			}()
			go client.Write(peer.resume)
			_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
			served, _ := io.ReadAll(client)
			client.Close()

			if err := <-errc; err == nil || !strings.Contains(err.Error(), peer.want) {
				t.Errorf("ServeConn = %v, want an error naming %q", err, peer.want)
			}
			if len(served) != 0 {
				t.Errorf("a %s client was served %d bytes before the refusal", peer.name, len(served))
			}
			if st := site.pub.Stats(); st.HellosRejected != 1 || st.SnapshotFallbacks != 0 || st.ResumeHits != 0 {
				t.Errorf("publisher stats after a %s hello = %+v, want one rejected hello and no catch-up", peer.name, st)
			}
		})
	}
}

// TestV3PublisherRefused pins the client half: an older publisher's hello
// (v3 JSONL or v4 binary) ends the connection with an error naming both
// versions before any frame reaches the aggregator, and the redials that
// follow climb the ordinary backoff schedule — a refused feed never counts
// as a delivery that resets it.
func TestV3PublisherRefused(t *testing.T) {
	for _, peer := range oldPeers {
		t.Run(peer.name, func(t *testing.T) {
			agg := NewAggregator()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errs := make(chan error, 64)
			fc := NewFeedClient(agg, "old-site", FeedOptions{
				Dial: func(context.Context) (net.Conn, error) {
					server, client := net.Pipe()
					go func() {
						defer server.Close()
						// An older publisher reads the hello (whatever it
						// makes of it), then speaks its own version.
						if _, err := server.Read(make([]byte, 512)); err == nil {
							server.Write(peer.hello)
						}
					}()
					return client, nil
				},
				Backoff:      BackoffConfig{Base: time.Millisecond, Cap: 8 * time.Millisecond, Seed: 5},
				OnDisconnect: func(err error) { errs <- err },
			})
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = fc.Run(ctx)
			}()
			for i := 0; i < 6; i++ {
				select {
				case err := <-errs:
					if err == nil || !strings.Contains(err.Error(), peer.want) {
						t.Errorf("connection %d ended with %v, want an error naming %q", i, err, peer.want)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("feed client stopped redialing")
				}
			}
			cancel()
			<-done

			st := fc.Stats()
			if st.FramesApplied != 0 || agg.NumServices() != 0 || len(agg.Sites()) != 0 {
				t.Errorf("a %s feed reached the aggregator: %d frames applied, %d services, sites %v",
					peer.name, st.FramesApplied, agg.NumServices(), agg.Sites())
			}
			if st.Disconnects != st.Connects || st.Connects < 6 {
				t.Errorf("feed stats = %+v, want every connection counted as a disconnect", st)
			}
			if got := fc.NextBackoff(); got != 8*time.Millisecond {
				t.Errorf("backoff ceiling after %d refused connections = %v, want the 8ms cap", st.Connects, got)
			}
		})
	}
}

// burstWriter is a write-only feed reader that records each Write and
// holds the first one until released.
type burstWriter struct {
	entered, release chan struct{}
	writes           [][]byte
}

func (w *burstWriter) Write(p []byte) (int, error) {
	if len(w.writes) == 0 {
		close(w.entered)
		<-w.release
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestServeConnFlushesPerBurst pins the serving loop's batching: frames
// already queued behind the one being served leave in the same write, so
// a five-event burst — here with the publisher's closing seal frame behind
// it — is one segment, not six, and the five events one run.
func TestServeConnFlushesPerBurst(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, nil, 2)
	pub := NewPublisherOpts("burst", eng, PublisherOptions{Heartbeat: -1})
	w := &burstWriter{entered: make(chan struct{}), release: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- pub.ServeConn(context.Background(), w) }()

	// With the reader stuck in its bootstrap write, five discoveries queue
	// on its live subscription, each published before its HandleBatch
	// returns, and the publisher's closing seal frame behind them.
	<-w.entered
	bld := packet.NewBuilder(0)
	for i := 0; i < 5; i++ {
		eng.HandleBatch([]packet.Packet{*bld.SynAck(retBase, packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(90+i), Port: 80},
			packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8)})
	}
	eng.Close()
	pub.Close()
	close(w.release)
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}

	if len(w.writes) != 2 {
		t.Fatalf("feed took %d writes, want 2 (bootstrap, then one burst)", len(w.writes))
	}
	var stream []byte
	for _, p := range w.writes {
		stream = append(stream, p...)
	}
	if n := len(wireFrameEnds(t, stream)); n != 4 {
		t.Errorf("feed took %d wire frames, want 4 (hello, snapshot, one run of five events, seal)", n)
	}
	dec := NewDecoder(bytes.NewReader(stream))
	var types []FrameType
	for {
		f, err := dec.Decode()
		if err != nil {
			break
		}
		types = append(types, f.Type)
		if dec.Offset() == int64(len(w.writes[0])) && len(types) != 2 {
			t.Errorf("bootstrap write held %d frames, want hello + snapshot", len(types))
		}
	}
	want := []FrameType{FrameHello, FrameSnapshot, FrameEvent, FrameEvent, FrameEvent, FrameEvent, FrameEvent, FrameSeal}
	if !reflect.DeepEqual(types, want) {
		t.Errorf("feed carried %v, want %v", types, want)
	}
}

// TestHeartbeatKeepsIdleFeedAlive pins the keepalive pair: a quiet feed
// stays inside the client's idle deadline because heartbeats keep
// arriving, and heartbeats never perturb aggregator state.
func TestHeartbeatKeepsIdleFeedAlive(t *testing.T) {
	site := newTestSite(4, 100)
	site.pub.Close()
	pub := NewPublisherOpts(site.id, site.eng, PublisherOptions{Heartbeat: 20 * time.Millisecond})
	site.produce()

	agg := NewAggregator()
	fc := NewFeedClient(agg, "quiet", FeedOptions{IdleTimeout: 150 * time.Millisecond})
	server, client := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = pub.ServeConn(ctx, server)
		server.Close()
	}()
	done := make(chan error, 1)
	go func() { done <- fc.RunConn(ctx, client) }()

	// Several idle windows pass; only heartbeats flow.
	select {
	case err := <-done:
		t.Fatalf("idle feed died despite heartbeats: %v", err)
	case <-time.After(500 * time.Millisecond):
	}
	if fc.Stats().Heartbeats == 0 {
		t.Error("no heartbeats counted on an idle feed")
	}
	if pub.Stats().HeartbeatsSent == 0 {
		t.Error("publisher counted no heartbeats sent")
	}
	before := agg.Dump()
	time.Sleep(100 * time.Millisecond)
	if after := agg.Dump(); !bytes.Equal(before, after) {
		t.Error("heartbeats mutated aggregator state")
	}

	// With the publisher closed the stream ends cleanly.
	pub.Close()
	site.eng.Close()
	if err := <-done; err != nil {
		t.Errorf("feed end after close: %v", err)
	}
}

// TestIdleTimeoutTripsWithoutHeartbeats is the inverse: heartbeats off, a
// silent publisher trips the client's idle deadline instead of hanging.
func TestIdleTimeoutTripsWithoutHeartbeats(t *testing.T) {
	site := newTestSite(5, 100)
	site.pub.Close()
	pub := NewPublisherOpts(site.id, site.eng, PublisherOptions{Heartbeat: -1})
	defer pub.Close()

	agg := NewAggregator()
	fc := NewFeedClient(agg, "silent", FeedOptions{IdleTimeout: 80 * time.Millisecond})
	server, client := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = pub.ServeConn(ctx, server)
		server.Close()
	}()
	done := make(chan error, 1)
	go func() { done <- fc.RunConn(ctx, client) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("silent feed ended cleanly, want idle-deadline error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle deadline never tripped")
	}
}

// TestStalenessDuringResync pins the staleness gauge mid-resync: while a
// reconnected site replays its backlog the gauge shrinks monotonically
// toward zero as the replayed frames advance the watermark.
func TestStalenessDuringResync(t *testing.T) {
	agg := NewAggregator()
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	mkEvent := func(site SiteID, seq uint64, at time.Time) *Frame {
		return &Frame{V: WireVersion, Type: FrameEvent, Site: site, Epoch: 1, Seq: seq, Event: &core.Event{
			Kind: core.EventServiceDiscovered, Time: at,
			Key: core.ServiceKey{
				Addr:  testCampus.Base() + netaddr.V4(uint32(seq)),
				Proto: packet.ProtoTCP, Port: 80,
			},
			Provenance: core.PassiveOnly,
		}}
	}
	// Fresh site pins the global watermark at base+1h.
	if err := agg.Apply(mkEvent("fresh", 1, base.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	// Lagging site reconnects and replays an hour of backlog.
	last := time.Duration(-1)
	for seq := uint64(1); seq <= 60; seq++ {
		if err := agg.Apply(mkEvent("lagging", seq, base.Add(time.Duration(seq)*time.Minute))); err != nil {
			t.Fatal(err)
		}
		stale := agg.Staleness()["lagging"]
		if last >= 0 && stale > last {
			t.Fatalf("staleness rose mid-resync: %s -> %s at seq %d", last, stale, seq)
		}
		last = stale
	}
	if last != 0 {
		t.Errorf("staleness after full resync = %s, want 0", last)
	}
}

// TestNoResumeClaimBeforeAppliedState pins the cursor rule that keeps a
// cut bootstrap recoverable: a hello alone registers the site but applies
// nothing, so SiteCursor must not hand out a resume cursor for it — a
// client whose first snapshot died mid-frame has to re-request the
// snapshot on redial, not resume past it from seq 0 and lose the
// snapshot-only weights and retractions forever.
func TestNoResumeClaimBeforeAppliedState(t *testing.T) {
	agg := NewAggregator()
	hello := &Frame{V: WireVersion, Type: FrameHello, Site: "east", Epoch: 9}
	if err := agg.Apply(hello); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := agg.SiteCursor("east"); ok {
		t.Fatal("hello-only site handed out a resume cursor")
	}

	// A snapshot — even at generation zero — is applied state: resuming
	// from (epoch, 0) is now correct, the snapshot's contents are held.
	snap := &Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Epoch: 9, Seq: 0,
		Snapshot: &Snapshot{}}
	if err := agg.Apply(snap); err != nil {
		t.Fatal(err)
	}
	if epoch, seq, ok := agg.SiteCursor("east"); !ok || epoch != 9 || seq != 0 {
		t.Fatalf("after snapshot: cursor (%d, %d, %v), want (9, 0, true)", epoch, seq, ok)
	}

	// Applied events count too (the snapshot-skipping path can't reach
	// here from scratch, but an epoch that opened with events is state).
	agg2 := NewAggregator()
	ev := core.Event{
		Kind: core.EventServiceDiscovered,
		Time: time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC),
		Key: core.ServiceKey{
			Addr:  netaddr.MustParseV4("128.125.9.9"),
			Proto: packet.ProtoTCP, Port: 80,
		},
		Provenance: core.PassiveOnly,
	}
	frame := &Frame{V: WireVersion, Type: FrameEvent, Site: "west", Epoch: 3, Seq: 1, Event: &ev}
	if err := agg2.Apply(frame); err != nil {
		t.Fatal(err)
	}
	if epoch, seq, ok := agg2.SiteCursor("west"); !ok || epoch != 3 || seq != 1 {
		t.Fatalf("after event: cursor (%d, %d, %v), want (3, 1, true)", epoch, seq, ok)
	}
}

// dialFeed opens a loopback TCP connection served by pub.ServeConn, plays
// the client's side of the handshake and reads the bootstrap. It returns
// the client end, a decoder positioned after the snapshot, and the channel
// ServeConn's result arrives on. TCP rather than net.Pipe: only a real
// socket accepts a write to a peer that has already gone.
func dialFeed(t *testing.T, ctx context.Context, pub *Publisher) (net.Conn, *Decoder, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		served <- pub.ServeConn(ctx, conn)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := client.Write(encodeFrames(t, Frame{V: WireVersion, Type: FrameResume, Resume: &ResumeCursor{}})); err != nil {
		t.Fatalf("client hello: %v", err)
	}
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	dec := NewDecoder(client)
	for _, want := range []FrameType{FrameHello, FrameSnapshot} {
		f, err := dec.Decode()
		if err != nil || f.Type != want {
			t.Fatalf("bootstrap: got %v, %v; want a %s frame", f, err, want)
		}
	}
	return client, dec, served
}

// liveReaders counts the publisher's frame subscriptions by publishing one
// heartbeat into the hub and reading how many deliveries it made.
func liveReaders(pub *Publisher) int {
	c := pub.hub.Counters()
	before := c.Out() + c.Dropped()
	pub.hub.Publish(Frame{V: WireVersion, Type: FrameHeartbeat, Site: pub.site, Epoch: pub.epoch})
	return c.Out() + c.Dropped() - before
}

// TestServeConnNoticesHangup: an aggregator that disconnects after its
// bootstrap is noticed by the read ServeConn keeps posted, not by a later
// write — nothing is published after the close, and the serving goroutine
// and its hub subscription must still be gone within a second.
func TestServeConnNoticesHangup(t *testing.T) {
	site := newTestSite(6, 50)
	site.pub.Close()
	pub := NewPublisherOpts(site.id, site.eng, PublisherOptions{Heartbeat: -1})
	defer pub.Close()
	site.produce()
	site.eng.Flush()

	client, _, served := dialFeed(t, context.Background(), pub)
	if n := liveReaders(pub); n != 1 {
		t.Fatalf("%d live readers after the bootstrap, want 1", n)
	}
	client.Close()
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Fatal("ServeConn still serving 1 s after the reader hung up")
	}
	if n := liveReaders(pub); n != 0 {
		t.Errorf("%d live readers after the hang-up, want 0", n)
	}
}

// TestServeConnKeepsSilentReader is the other half: a reader that stays
// connected and says nothing is the normal case and must keep its feed;
// and when the serving ends for another reason, the posted read is
// released with it.
func TestServeConnKeepsSilentReader(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, nil, 2)
	pub := NewPublisherOpts("silent-reader", eng, PublisherOptions{Heartbeat: -1})
	defer eng.Close()
	goroutines := runtime.NumGoroutine()

	_, dec, served := dialFeed(t, context.Background(), pub)
	select {
	case err := <-served:
		t.Fatalf("ServeConn dropped a silent reader: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
	eng.HandleBatch([]packet.Packet{*packet.NewBuilder(0).SynAck(retBase, packet.Endpoint{Addr: testCampus.Base() + 70, Port: 80},
		packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8)})
	if f, err := dec.Decode(); err != nil || f.Type != FrameEvent {
		t.Fatalf("silent reader's live feed: got %v, %v; want an event frame", f, err)
	}

	pub.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServeConn after publisher close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("ServeConn did not return after the publisher closed")
	}
	// Everything the serving started — and the publisher's own goroutine,
	// now closed — must be gone: a reader still parked in Read would hold
	// the count up.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after ServeConn returned, %d before it started", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResumeFromEveryCursor is the resume oracle: a site's whole feed is
// recorded — retention expiries of both evidence kinds, an expire-and-
// rebirth, and sweep reports, so passive and active retractions and active
// rows all ride seal frames — and then, for every cursor from the
// bootstrap generation to the terminal seal, a fresh aggregator applies
// the recorded frames up to the cursor, resumes there, and applies the
// rest of the recording. Each must dump byte-identical to a reader that
// attached after the site closed: whatever changed past a cursor, the
// resume's snapshot carries it.
func TestResumeFromEveryCursor(t *testing.T) {
	h := core.NewHybrid(testCampus, nil, 2, []uint16{22, 80})
	h.SetRetention(core.RetentionPolicy{PassiveTTL: time.Hour, ActiveTTL: time.Hour})
	pub := NewPublisherOpts("every-cursor", h, PublisherOptions{Heartbeat: -1})
	defer pub.Close()
	bootstrap, live := pub.Catchup(1 << 16)

	bld := packet.NewBuilder(0)
	ext := netaddr.MustParseV4("64.20.0.1")
	srv := func(i int) netaddr.V4 { return testCampus.Base() + netaddr.V4(300+i) }
	answer := func(at time.Duration, ids ...int) {
		var batch []packet.Packet
		for _, i := range ids {
			batch = append(batch, *bld.SynAck(retBase.Add(at), packet.Endpoint{Addr: srv(i), Port: 80},
				packet.Endpoint{Addr: ext, Port: 33000}, 9, 8))
		}
		h.HandleBatch(batch)
		h.Snapshot()
	}
	sweep := func(id int, at time.Duration, ids ...int) {
		rep := &probe.ScanReport{ID: id, Started: retBase.Add(at), Finished: retBase.Add(at + time.Minute)}
		for _, i := range ids {
			rep.TCP = append(rep.TCP, probe.TCPResult{Time: retBase.Add(at), Addr: srv(i), Port: 22, State: probe.StateOpen})
		}
		h.AddReport(rep)
		h.Snapshot()
	}
	answer(0, 0, 1, 2, 3, 4, 5)
	sweep(1, 10*time.Minute, 0, 1, 20) // 20 answers probes only
	answer(30*time.Minute, 0, 1, 2)
	answer(2*time.Hour, 0, 6)             // 1-5 expire, and the probe answers of 0, 1 and 20
	answer(2*time.Hour+30*time.Minute, 4) // 4 is reborn
	sweep(2, 2*time.Hour+40*time.Minute, 6, 21)
	h.Close()
	var frames []Frame
	for f := range live.Events() {
		frames = append(frames, f)
	}

	var passiveRet, activeRet, activeRow bool
	for _, f := range frames {
		if f.Type != FrameSeal {
			continue
		}
		for _, r := range f.Snapshot.Retractions {
			passiveRet = passiveRet || r.Prov == core.PassiveOnly
			activeRet = activeRet || r.Prov == core.ActiveOnly
		}
		for _, s := range f.Snapshot.Services {
			activeRow = activeRow || !s.ActiveAt.IsZero()
		}
	}
	if !passiveRet || !activeRet || !activeRow {
		t.Fatalf("seal frames carry passive retractions %v, active retractions %v, active rows %v; want all three",
			passiveRet, activeRet, activeRow)
	}

	ref := NewAggregator()
	<-ref.Attach(pub)
	want := ref.Dump()
	st := pub.State()
	for cur := bootstrap[1].Seq; cur <= st.Seq; cur++ {
		agg := NewAggregator()
		for i := range bootstrap {
			if err := agg.Apply(&bootstrap[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range frames {
			if frames[i].Seq <= cur {
				if err := agg.Apply(&frames[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		resume, rlive, resumed := pub.catchup(0, ResumeCursor{Epoch: st.Epoch, Seq: cur})
		rlive.Cancel()
		if !resumed {
			t.Fatalf("cursor %d of [%d, %d] fell back to a full snapshot", cur, bootstrap[1].Seq, st.Seq)
		}
		for _, f := range append(resume, frames...) {
			if err := agg.Apply(&f); err != nil {
				t.Fatal(err)
			}
		}
		if got := agg.Dump(); !bytes.Equal(got, want) {
			t.Fatalf("resumed at cursor %d, the reader diverges from a post-close attach:\n%s", cur, firstDiff(got, want))
		}
	}
}

// TestResumeAfterRestore reconnects a reader across a site restore. The
// victim is checkpointed at 20 services, then seals four more batches,
// which the reader applies, and is killed without a further checkpoint.
// The restored engine replays the tail in one batch with two new services
// and seals less often, so its stream reaches the reader's sequence
// number with fewer frames. The reader reconnects before the restored
// engine's first seal, or after it; either way it must end with all 60
// services, byte-identical to a reader that attached after the restored
// site closed. A publisher that continued the stored epoch lost the two
// new services in both cases: their frames fell at or below the reader's
// cursor, so they were dropped as duplicates or skipped by the resume.
func TestResumeAfterRestore(t *testing.T) {
	bld := packet.NewBuilder(0)
	ext := netaddr.MustParseV4("64.20.0.1")
	answer := func(e *core.ShardedPassive, from, to int) {
		var batch []packet.Packet
		for i := from; i < to; i++ {
			batch = append(batch, *bld.SynAck(retBase.Add(time.Duration(i)*time.Second), packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(500+i), Port: 80},
				packet.Endpoint{Addr: ext, Port: 33000}, 9, 8))
		}
		e.HandleBatch(batch)
	}
	// apply folds every frame queued on live into agg.
	apply := func(agg *Aggregator, frames []Frame, live *pipeline.Sub[Frame]) {
		for len(live.Events()) > 0 {
			frames = append(frames, <-live.Events())
		}
		for i := range frames {
			if err := agg.Apply(&frames[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, early := range []bool{true, false} {
		t.Run(fmt.Sprintf("reconnect-before-first-seal=%v", early), func(t *testing.T) {
			eng := core.NewShardedPassive(testCampus, nil, 2)
			pub := NewPublisherOpts("restarted", eng, PublisherOptions{Heartbeat: -1})
			agg := NewAggregator()
			boot, live := pub.Catchup(0)
			answer(eng, 0, 20)
			eng.Snapshot()
			ckpt, _ := eng.ExportDelta(nil)
			for i := 20; i < 40; i += 5 {
				answer(eng, i, i+5)
				eng.Snapshot()
			}
			apply(agg, boot, live)
			live.Cancel()
			_, held, _ := agg.SiteCursor("restarted")
			pub.Close()

			restored := core.NewShardedPassive(testCampus, nil, 2)
			if err := restored.ImportDelta(ckpt); err != nil {
				t.Fatal(err)
			}
			rpub := NewPublisherOpts("restarted", restored, PublisherOptions{Heartbeat: -1})
			restored.Snapshot()
			var rboot []Frame
			var rlive *pipeline.Sub[Frame]
			if early {
				rboot, rlive, _ = rpub.catchup(0, ResumeCursor{Epoch: pub.State().Epoch, Seq: held})
			}
			answer(restored, 20, 42)
			restored.Snapshot()
			if !early {
				answer(restored, 42, 44)
				restored.Snapshot()
				rboot, rlive, _ = rpub.catchup(0, ResumeCursor{Epoch: pub.State().Epoch, Seq: held})
			} else {
				answer(restored, 42, 44)
			}
			answer(restored, 44, 60)
			restored.Close()
			rpub.Close()
			apply(agg, rboot, rlive)
			ref := NewAggregator()
			<-ref.Attach(rpub)
			if n := agg.NumServices(); n != 60 {
				t.Errorf("the reader holds %d of 60 services", n)
			}
			if got, want := agg.Dump(), ref.Dump(); !bytes.Equal(got, want) {
				t.Errorf("resumed across the restore, the reader diverges from a post-close attach:\n%s", firstDiff(got, want))
			}
		})
	}
}

// TestStreamExactOnReturn: the publisher sequences each engine event on the
// goroutine that publishes it, so when an inline engine's HandleBatch
// returns, every discovery it made is already a frame of the feed — none
// waits in a queue, none is dropped.
func TestStreamExactOnReturn(t *testing.T) {
	const services = 2000
	eng := core.NewShardedPassive(testCampus, nil, 2)
	pub := NewPublisherOpts("exact", eng, PublisherOptions{Heartbeat: -1})
	defer pub.Close()
	bld := packet.NewBuilder(0)
	batch := make([]packet.Packet, services)
	for i := range batch {
		batch[i] = *bld.SynAck(retBase, packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(i), Port: 80},
			packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8)
	}
	eng.HandleBatch(batch)
	if seq, dropped := pub.State().Seq, pub.Dropped(); seq != services || dropped != 0 {
		t.Fatalf("HandleBatch returned with the stream at %d and %d events dropped, want %d and 0", seq, dropped, services)
	}
}

// gatedObserverEngine holds the publisher's snapshot observer at a gate on
// its first link with a predecessor: a snapshot caught between its freeze
// and its seal.
type gatedObserverEngine struct {
	*core.ShardedPassive
	entered, release chan struct{}
}

func (e gatedObserverEngine) OnSnapshot(fn func(prev, inv *core.Inventory, d core.SnapshotDelta)) {
	var once sync.Once
	e.ShardedPassive.OnSnapshot(func(prev, inv *core.Inventory, d core.SnapshotDelta) {
		if prev != nil {
			once.Do(func() {
				close(e.entered)
				<-e.release
			})
		}
		fn(prev, inv, d)
	})
}

// TestClosingSealWaitsForConcurrentSnapshot: the engine closes while
// another goroutine's snapshot sits between its freeze and its seal. The
// publisher's closing snapshot must not run past that seal and end the
// feed without it: a reader attached throughout ends holding exactly what
// a reader attached after the close holds, weights included.
func TestClosingSealWaitsForConcurrentSnapshot(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, nil, 2)
	gated := gatedObserverEngine{eng, make(chan struct{}), make(chan struct{})}
	pub := NewPublisherOpts("closing", gated, PublisherOptions{Heartbeat: -1})
	agg := NewAggregator()
	attached := agg.Attach(pub)
	bld := packet.NewBuilder(0)
	batch := func(at time.Duration) []packet.Packet {
		var b []packet.Packet
		for i := range 4 {
			b = append(b, *bld.SynAck(retBase.Add(at), packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(80+i), Port: 80},
				packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8))
		}
		return b
	}
	// Attach took the chain's first link; these discoveries and the weights
	// of their re-observation land in the second, the gated one. Only its
	// seal ships the weights.
	eng.HandleBatch(batch(0))
	eng.HandleBatch(batch(time.Minute))
	sealed := make(chan struct{})
	go func() {
		defer close(sealed)
		eng.Snapshot()
	}()
	<-gated.entered
	eng.Close()
	// Let a closing snapshot that does not wait for the held seal end the
	// feed first.
	select {
	case <-pub.done:
	case <-time.After(100 * time.Millisecond):
	}
	close(gated.release)
	<-sealed
	<-attached
	ref := NewAggregator()
	<-ref.Attach(pub)
	if got, want := agg.Dump(), ref.Dump(); !bytes.Equal(got, want) {
		t.Errorf("the feed ended without the seal of a snapshot taken as the engine closed:\n%s", firstDiff(got, want))
	}
}

// gatedConn is a feed client's connection whose reads wait while the test
// holds gate: a reader stalled on its socket.
type gatedConn struct {
	net.Conn
	gate *sync.Mutex
}

func (c gatedConn) Read(p []byte) (int, error) {
	c.gate.Lock()
	c.gate.Unlock()
	return c.Conn.Read(p)
}

// TestServeConnEvictsOverflowingReader is the overload answer at a
// reader's frame queue: a wire reader stalls while more than feedBuffer
// frames are published — a seal frame among the ones its queue drops — and
// is disconnected at the first frame past the gap rather than served on,
// so frames published once it reads again cannot carry its cursor past
// the lost ones. Its client redials, resumes from the last frame it
// applied, and ends byte-identical to a reader that attached after the
// site closed.
func TestServeConnEvictsOverflowingReader(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, nil, 2)
	pub := NewPublisherOpts("stalled", eng, PublisherOptions{Heartbeat: -1})
	var gate sync.Mutex
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agg := NewAggregator()
	fc := NewFeedClient(agg, "stalled", FeedOptions{
		Dial: func(context.Context) (net.Conn, error) {
			server, client := net.Pipe()
			go func() {
				_ = pub.ServeConn(ctx, server)
				server.Close()
			}()
			return gatedConn{Conn: client, gate: &gate}, nil
		},
		Backoff: BackoffConfig{Base: time.Millisecond, Cap: 10 * time.Millisecond, Seed: 3},
	})
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		_ = fc.Run(ctx)
	}()
	waitCursor(t, agg, "stalled", 0)

	gate.Lock()
	bld := packet.NewBuilder(0)
	// Past the queue by more than the one burst (at most maxRun frames) the
	// serving loop may have taken off it before its write stalled.
	const n = feedBuffer + 3000
	for i := 0; i < n; i += 1000 {
		var batch []packet.Packet
		for j := i; j < min(i+1000, n); j++ {
			batch = append(batch, *bld.SynAck(retBase.Add(time.Duration(j)*time.Millisecond),
				packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(j/2), Port: uint16(80 + j%2)},
				packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8))
		}
		eng.HandleBatch(batch)
	}
	eng.Snapshot() // its seal frame lands past the stalled reader's full queue
	if pub.FrameCounters().Dropped() == 0 {
		t.Fatal("the stalled reader's queue dropped no frame")
	}
	gate.Unlock()
	// Once the reader has caught up with what reached it, one more service
	// and its seal.
	for applied, stable := fc.Stats().FramesApplied, 0; stable < 20; stable++ {
		time.Sleep(2 * time.Millisecond)
		if now := fc.Stats().FramesApplied; now != applied {
			applied, stable = now, 0
		}
	}
	eng.HandleBatch([]packet.Packet{*bld.SynAck(retBase.Add(time.Hour), packet.Endpoint{Addr: testCampus.Base() + 60000, Port: 80},
		packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8)})
	eng.Snapshot()

	eng.Close()
	pub.Close()
	waitCursor(t, agg, "stalled", pub.State().Seq)
	cancel()
	<-ran
	if ev := pub.Stats().Evictions; ev == 0 {
		t.Error("the overflowed reader was not evicted")
	}
	if fc.Stats().ResumeHits == 0 {
		t.Error("the evicted reader's redial did not resume")
	}
	ref := NewAggregator()
	<-ref.Attach(pub)
	if got, want := agg.Dump(), ref.Dump(); !bytes.Equal(got, want) {
		t.Errorf("the evicted reader diverges from a post-close attach:\n%s", divergence(got, want))
	}
}
