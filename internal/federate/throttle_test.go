package federate

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"
)

// TestFeedThrottleStallsAndCancels pins the two-limiter admit: frames
// inside both budgets pass without stalling, a byte-budget deficit
// stalls, and context cancellation interrupts the stall.
func TestFeedThrottleStallsAndCancels(t *testing.T) {
	th := newFeedThrottle(1000, 1000)
	if stalled, err := th.admit(context.Background(), 100); err != nil || stalled {
		t.Fatalf("in-budget admit: stalled=%v err=%v", stalled, err)
	}
	// Blow the byte budget; the next admit must stall (briefly).
	start := time.Now()
	if stalled, err := th.admit(context.Background(), 2000); err != nil {
		t.Fatal(err)
	} else if !stalled {
		t.Fatal("byte-budget deficit did not stall")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall absurdly long")
	}

	// A cancelled context interrupts a long stall immediately.
	slow := newFeedThrottle(0, 1) // 1 byte/s: a 1MB frame owes ~12 days
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := slow.admit(ctx, 1<<20)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled stall returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not interrupt the stall")
	}
}

// TestFeedClientThrottleCounts runs a throttled feed end to end and
// checks stalls are counted and the stream still lands intact.
func TestFeedClientThrottleCounts(t *testing.T) {
	// Connect the feed BEFORE producing so the site's ~200 discoveries
	// arrive as individual live frames rather than one bootstrap
	// snapshot; a 100-frame/s cap (burst 100) then forces roughly a
	// second of stalling without dragging the test out.
	site := newTestSite(6, 600)
	agg := NewAggregator()
	fc := NewFeedClient(agg, "throttled", FeedOptions{MaxFramesPerSec: 100})
	server, client := net.Pipe()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		_ = site.pub.ServeConn(ctx, server)
		server.Close()
	}()
	done := make(chan error, 1)
	go func() { done <- fc.RunConn(ctx, client) }()

	// The hello lands only after the publisher subscribed its live tap,
	// so once the client knows the site every later event is a frame.
	for deadline := time.Now().Add(5 * time.Second); fc.Site() == ""; {
		if time.Now().After(deadline) {
			t.Fatal("feed never saw the hello")
		}
		time.Sleep(time.Millisecond)
	}
	site.produce()
	site.eng.Close() // ends the live stream; the feed drains and exits
	if err := <-done; err != nil {
		t.Fatalf("throttled feed: %v", err)
	}
	if fc.Stats().ThrottleStalls == 0 {
		t.Errorf("no throttle stalls counted under a 100-frame/s cap (stats %+v)", fc.Stats())
	}
	// Events alone don't carry the snapshot-only flow/client weights, so
	// seal both aggregators with the standard final snapshot attach
	// before comparing (same contract as the resync tests).
	<-agg.Attach(site.pub)
	ref := NewAggregator()
	<-ref.Attach(site.pub)
	if got, want := agg.Dump(), ref.Dump(); string(got) != string(want) {
		t.Errorf("throttled feed diverges:\n%s", firstDiff(got, want))
	}
}

// TestFeedThrottleChargesRunOnce feeds a hello and one 120-event run. The
// byte cap charges the run's wire bytes once, at its first decoded frame,
// so a budget of exactly the stream's length admits it all unstalled. The
// frame cap counts decoded frames, not wire frames, so 100 frames/s stalls
// the 21 frames past its burst.
func TestFeedThrottleChargesRunOnce(t *testing.T) {
	wire := encodeBursts(t, []Frame{{V: WireVersion, Type: FrameHello, Site: "run", Epoch: 7}},
		steadyEvents("run", 7, 1, 120))
	feed := func(opt FeedOptions) FeedStats {
		fc := NewFeedClient(NewAggregator(), "run", opt)
		server, client := net.Pipe()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- fc.RunConn(ctx, client) }()
		if _, err := NewDecoder(server).Decode(); err != nil { // the client's resume hello
			t.Fatal(err)
		}
		if _, err := server.Write(wire); err != nil {
			t.Fatal(err)
		}
		server.Close()
		if err := <-done; err != nil {
			t.Fatalf("throttled feed: %v", err)
		}
		return fc.Stats()
	}
	if st := feed(FeedOptions{MaxBytesPerSec: float64(len(wire))}); st.FramesApplied != 121 || st.ThrottleStalls != 0 {
		t.Errorf("a byte budget of the whole stream: %d frames applied with %d stalls, want 121 and none",
			st.FramesApplied, st.ThrottleStalls)
	}
	if st := feed(FeedOptions{MaxFramesPerSec: 100}); st.FramesApplied != 121 || st.ThrottleStalls < 10 {
		t.Errorf("100 frames/s: %d frames applied with %d stalls, want 121 and about 21",
			st.FramesApplied, st.ThrottleStalls)
	}
}

// TestFeedThrottleChargesFramesNotReadAhead delivers a burst of small
// frames in one write against a byte cap whose burst covers half of them.
// Each frame must be charged its own wire length: the first half passes
// unstalled and immediately, and each frame past the burst stalls. (The
// byte counter used to sit under the decoder's read buffer, so the first
// frame was charged the whole write — one long stall up front, then
// every frame behind it free.)
func TestFeedThrottleChargesFramesNotReadAhead(t *testing.T) {
	const frames = 20
	var wire bytes.Buffer
	enc := NewEncoder(&wire)
	var ends [frames]int
	for i := range ends {
		f := Frame{V: WireVersion, Type: FrameHeartbeat, Site: "burst", Epoch: 7}
		if i == 0 {
			f.Type = FrameHello
		}
		if err := enc.Encode(&f); err != nil {
			t.Fatal(err)
		}
		ends[i] = wire.Len()
	}
	// One second of byte budget — the burst — ends mid-way through frame
	// frames/2+1, so exactly the first half fits.
	budget := float64(ends[frames/2-1]+ends[frames/2]) / 2

	agg := NewAggregator()
	fc := NewFeedClient(agg, "burst", FeedOptions{MaxBytesPerSec: budget})
	server, client := net.Pipe()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fc.RunConn(ctx, client) }()
	if _, err := NewDecoder(server).Decode(); err != nil { // the client's resume hello
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := server.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	server.Close()

	for fc.Stats().FramesApplied < frames/2 {
		if ctx.Err() != nil {
			t.Fatalf("feed stuck at %d frames", fc.Stats().FramesApplied)
		}
		time.Sleep(time.Millisecond)
	}
	halfAt := time.Since(start)
	if err := <-done; err != nil {
		t.Fatalf("throttled feed: %v", err)
	}
	total := time.Since(start)

	st := fc.Stats()
	if st.FramesApplied != frames {
		t.Fatalf("applied %d frames, want %d", st.FramesApplied, frames)
	}
	// Every frame past the burst finds the allowance spent; a scheduling
	// hiccup refills a frame or two's worth, never half of them.
	if st.ThrottleStalls < frames/4 || st.ThrottleStalls > frames/2 {
		t.Errorf("%d stalls over %d frames with a %d-frame burst; want one per frame past the burst",
			st.ThrottleStalls, frames, frames/2)
	}
	// The half inside the burst is applied at once, the rest is paced
	// over ~1s: charging the first frame for the whole write would hold
	// everything back until the end.
	if halfAt > total/2 {
		t.Errorf("first %d frames took %v of %v: the burst was not admitted up front", frames/2, halfAt, total)
	}
}
