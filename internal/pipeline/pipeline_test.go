package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

var (
	testServer = netaddr.MustParseV4("128.125.7.9")
	testClient = netaddr.MustParseV4("64.1.2.3")
	testRef    = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
)

// corpus builds n alternating SYN-ACK / bare-ACK packets so a flag filter
// keeps exactly half.
func corpus(n int) []packet.Packet {
	bld := packet.NewBuilder(0)
	out := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		flags := packet.FlagSYN | packet.FlagACK
		if i%2 == 1 {
			flags = packet.FlagACK
		}
		p := bld.TCPPacket(testRef.Add(time.Duration(i)*time.Millisecond),
			packet.Endpoint{Addr: testServer, Port: 80},
			packet.Endpoint{Addr: testClient + netaddr.V4(i), Port: 40000},
			flags, 1, 2, nil)
		out = append(out, *p)
	}
	return out
}

func TestFanoutDuplicates(t *testing.T) {
	a, b := 0, 0
	f := Fanout{
		BatchFunc(func(batch []packet.Packet) { a += len(batch) }),
		nil, // nil entries are skipped
		BatchFunc(func(batch []packet.Packet) { b += len(batch) }),
	}
	f.HandleBatch(corpus(7))
	if a != 7 || b != 7 {
		t.Errorf("fanout delivered %d/%d", a, b)
	}
}

func TestCountersConcurrentReaders(t *testing.T) {
	var c StageCounters
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.In() + c.Out() + c.Dropped()
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		c.AddIn(2)
		c.AddOut(1)
		c.AddDropped(1)
	}
	close(stop)
	wg.Wait()
	if c.In() != 2000 || c.Out() != 1000 || c.Dropped() != 1000 {
		t.Errorf("counters = %d/%d/%d", c.In(), c.Out(), c.Dropped())
	}
}

func TestHubFanoutAndDrops(t *testing.T) {
	hub := NewHub[int]()
	fast := hub.Subscribe(8)
	slow := hub.Subscribe(2)
	for i := 0; i < 8; i++ {
		hub.Publish(i)
	}
	if d := fast.Dropped(); d != 0 {
		t.Errorf("fast subscriber dropped %d", d)
	}
	if d := slow.Dropped(); d != 6 {
		t.Errorf("slow subscriber dropped %d, want 6", d)
	}
	c := hub.Counters()
	if c.In() != 8 || c.Out() != 10 || c.Dropped() != 6 {
		t.Errorf("hub counters = %d/%d/%d, want 8/10/6", c.In(), c.Out(), c.Dropped())
	}
	hub.Close()
	var got []int
	for v := range fast.Events() {
		got = append(got, v)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fast subscriber saw %v", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fast subscriber saw %d events, want 8", len(got))
	}
	// The slow subscriber keeps its first two buffered events.
	if v, ok := <-slow.Events(); !ok || v != 0 {
		t.Errorf("slow subscriber first event = %d/%v", v, ok)
	}
}

func TestHubPublishNeverBlocks(t *testing.T) {
	hub := NewHub[int]()
	sub := hub.Subscribe(1) // never drained
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			hub.Publish(i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a full subscriber")
	}
	if sub.Dropped() != 9999 {
		t.Errorf("dropped %d, want 9999", sub.Dropped())
	}
}

func TestHubCancelAndCloseSemantics(t *testing.T) {
	hub := NewHub[string]()
	a := hub.Subscribe(4)
	b := hub.Subscribe(4)
	hub.Publish("x")
	a.Cancel()
	a.Cancel() // idempotent
	hub.Publish("y")
	if _, ok := <-a.Events(); !ok {
		// first receive drains the buffered "x"
		t.Error("cancelled subscriber lost its buffered event")
	}
	if _, ok := <-a.Events(); ok {
		t.Error("cancelled subscriber still receiving")
	}
	hub.Close()
	hub.Close() // idempotent
	hub.Publish("z")
	var got []string
	for v := range b.Events() {
		got = append(got, v)
	}
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("surviving subscriber saw %v, want [x y]", got)
	}
	// Subscribing after close yields an immediately-closed channel.
	late := hub.Subscribe(1)
	if _, ok := <-late.Events(); ok {
		t.Error("late subscriber got an open channel")
	}
	late.Cancel() // no-op, must not panic
}

func TestHubConcurrentPublishers(t *testing.T) {
	hub := NewHub[int]()
	sub := hub.Subscribe(1 << 14)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				hub.Publish(i)
			}
		}()
	}
	wg.Wait()
	hub.Close()
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 8000 || sub.Dropped() != 0 {
		t.Errorf("received %d (dropped %d), want 8000/0", n, sub.Dropped())
	}
}

// A filtered subscriber must see exactly the subsequence of the published
// stream its predicate selects, in publication order — filtering changes
// which events arrive, never their relative order.
func TestHubFilteredSubscriptionOrderMatchesUnfiltered(t *testing.T) {
	hub := NewHub[int]()
	all := hub.Subscribe(1024)
	even := hub.SubscribeFunc(1024, func(v int) bool { return v%2 == 0 })
	for i := 0; i < 500; i++ {
		hub.Publish(i)
	}
	hub.Close()
	var full, filtered []int
	for v := range all.Events() {
		full = append(full, v)
	}
	for v := range even.Events() {
		filtered = append(filtered, v)
	}
	var want []int
	for _, v := range full {
		if v%2 == 0 {
			want = append(want, v)
		}
	}
	if len(filtered) != len(want) {
		t.Fatalf("filtered subscriber saw %d events, want %d", len(filtered), len(want))
	}
	for i := range want {
		if filtered[i] != want[i] {
			t.Fatalf("filtered order diverges at %d: got %d want %d", i, filtered[i], want[i])
		}
	}
	if even.Filtered() != 250 || even.Dropped() != 0 {
		t.Errorf("filtered/dropped = %d/%d, want 250/0", even.Filtered(), even.Dropped())
	}
}

// The drop budget of a filtered subscriber covers only events that passed
// its filter: a tiny buffer watching a rare slice of a firehose drops
// nothing, and when it does overflow, only filter-passing events count.
func TestHubFilteredDropAccounting(t *testing.T) {
	hub := NewHub[int]()
	// Passes 10 of 1000 events into a buffer of 16: no drops possible.
	rare := hub.SubscribeFunc(16, func(v int) bool { return v%100 == 0 })
	// Passes 500 of 1000 into a buffer of 2: exactly 498 filtered-in drops.
	tight := hub.SubscribeFunc(2, func(v int) bool { return v%2 == 0 })
	for i := 0; i < 1000; i++ {
		hub.Publish(i)
	}
	if d := rare.Dropped(); d != 0 {
		t.Errorf("rare subscriber dropped %d, want 0 (filtered events must not consume drop budget)", d)
	}
	if f := rare.Filtered(); f != 990 {
		t.Errorf("rare subscriber filtered %d, want 990", f)
	}
	if d := tight.Dropped(); d != 498 {
		t.Errorf("tight subscriber dropped %d, want 498 (only filter-passing events)", d)
	}
	if f := tight.Filtered(); f != 500 {
		t.Errorf("tight subscriber filtered %d, want 500", f)
	}
	// Aggregate hub drop counter likewise charges only filter-passing
	// overflow (498 from tight, 0 from rare).
	if c := hub.Counters(); c.Dropped() != 498 {
		t.Errorf("hub dropped %d, want 498", c.Dropped())
	}
	hub.Close()
}

// TestHubDeliveryModel drives concurrent publishers past every kind of
// subscriber at once. A synchronous subscriber sees every event once, in
// each publisher's order, and drops none; once its Cancel returns it is
// called no more, though publishing goes on. A channel subscriber that is
// never read drops and counts what overflows its buffer, and a filtered
// one counts what its filter rejects as Filtered, not Dropped. A
// synchronous subscription's Done closes when the hub closes.
func TestHubDeliveryModel(t *testing.T) {
	const publishers, each = 4, 2000
	type ev struct{ pub, i int }
	hub := NewHub[ev]()
	var mu sync.Mutex
	next := make([]int, publishers) // the next i each publisher's events must carry
	var misordered int
	direct := hub.SubscribeSync(func(e ev) {
		mu.Lock()
		if e.i != next[e.pub] {
			misordered++
		}
		next[e.pub] = e.i + 1
		mu.Unlock()
	})
	var cancelled, lateCalls atomic.Int64
	late := hub.SubscribeSync(func(ev) {
		if cancelled.Load() != 0 {
			lateCalls.Add(1)
		}
	})
	unread := hub.Subscribe(16)
	filtered := hub.SubscribeFunc(publishers*each, func(e ev) bool { return e.pub == 0 })

	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				hub.Publish(ev{p, i})
			}
		}()
	}
	// Cancel the late subscriber while the publishers run.
	for hub.Counters().In() < each {
		runtime.Gosched()
	}
	late.Cancel()
	cancelled.Store(1)
	select {
	case <-late.Done():
	default:
		t.Error("a cancelled synchronous subscription's Done is open")
	}
	wg.Wait()

	total := publishers * each
	for p, n := range next {
		if n != each {
			t.Errorf("the synchronous subscriber saw publisher %d's events up to %d, want %d", p, n, each)
		}
	}
	if misordered != 0 || direct.Dropped() != 0 {
		t.Errorf("the synchronous subscriber saw %d events out of order and dropped %d, want 0 and 0", misordered, direct.Dropped())
	}
	if n := lateCalls.Load(); n != 0 {
		t.Errorf("a synchronous subscriber was called %d times after its Cancel returned", n)
	}
	if d := unread.Dropped(); d != total-16 {
		t.Errorf("an unread 16-slot subscriber dropped %d, want %d", d, total-16)
	}
	if f, d := filtered.Filtered(), filtered.Dropped(); f != total-each || d != 0 {
		t.Errorf("a filtered subscriber counted %d filtered and %d dropped, want %d and 0", f, d, total-each)
	}

	hub.Close()
	select {
	case <-direct.Done():
	case <-time.After(time.Second):
		t.Fatal("a synchronous subscription's Done stayed open after the hub closed")
	}
	if _, ok := <-direct.Events(); ok {
		t.Error("a synchronous subscription's Events carried an event")
	}
}
