package faultnet

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"servdisc/internal/stats"
)

// readAll drains a conn on a goroutine-independent deadline so a broken
// impairment cannot hang the test.
func readAll(t *testing.T, c net.Conn) []byte {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf bytes.Buffer
	_, _ = io.Copy(&buf, c)
	return buf.Bytes()
}

// TestCutTruncatesMidChunk pins the partition fault: the link delivers
// exactly CutAt bytes — truncating inside the offending write — then
// resets both directions.
func TestCutTruncatesMidChunk(t *testing.T) {
	client, server := Pipe(Faults{}, Faults{CutAt: 100})
	payload := bytes.Repeat([]byte("x"), 300)
	errc := make(chan error, 1)
	go func() {
		_, err := server.Write(payload)
		errc <- err
	}()
	got := readAll(t, client)
	if len(got) != 100 {
		t.Fatalf("delivered %d bytes across a CutAt=100 link, want exactly 100", len(got))
	}
	if err := <-errc; err != ErrCut {
		t.Fatalf("writer error = %v, want ErrCut", err)
	}
	if _, err := server.Write([]byte("more")); err != ErrCut {
		t.Fatalf("write after cut = %v, want ErrCut", err)
	}
}

// TestCorruptionFlipsExactOffsets pins the corruption fault: the byte at
// each CorruptAt stream offset is inverted regardless of how the writer
// chunks — so it always differs from what was sent, a zero byte included
// — and every other byte is untouched.
func TestCorruptionFlipsExactOffsets(t *testing.T) {
	client, server := Pipe(Faults{}, Faults{CorruptAt: []int64{3, 17}})
	go func() {
		// Two writes with the second corruption offset inside the second
		// chunk: offsets must be stream positions, not chunk positions.
		server.Write([]byte("012\x00456789"))
		server.Write([]byte("abcdefghij"))
		server.Close()
	}()
	got := readAll(t, client)
	want := []byte("012\xff456789abcdefg\x97ij")
	if !bytes.Equal(got, want) {
		t.Fatalf("corrupted stream = %q, want %q", got, want)
	}
}

// TestDuplicationReplaysSpan pins the duplication fault: the span
// [DupAt, DupAt+DupLen) passes twice, immediately repeated, and stream
// offsets keep counting the un-duplicated stream.
func TestDuplicationReplaysSpan(t *testing.T) {
	client, server := Pipe(Faults{}, Faults{DupAt: 5, DupLen: 3})
	go func() {
		server.Write([]byte("abcdefghij"))
		server.Close()
	}()
	got := readAll(t, client)
	want := []byte("abcdefghfghij")
	if !bytes.Equal(got, want) {
		t.Fatalf("duplicated stream = %q, want %q", got, want)
	}
}

// TestRandomDeterministic pins replayability: the same seed draws the
// same plan, a different seed a different one.
func TestRandomDeterministic(t *testing.T) {
	a := Random(stats.NewRNG(7).Derive("chaos"), 1<<16)
	b := Random(stats.NewRNG(7).Derive("chaos"), 1<<16)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different plans:\n%+v\n%+v", a, b)
	}
	diff := false
	for seed := uint64(8); seed < 16; seed++ {
		if !reflect.DeepEqual(a, Random(stats.NewRNG(seed).Derive("chaos"), 1<<16)) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("eight different seeds all drew the same plan")
	}
}

// TestProxyCutsRealTCP runs the out-of-process face end to end: a TCP
// source serving a known byte stream, the proxy cutting the first
// connection mid-stream and passing the second clean.
func TestProxyCutsRealTCP(t *testing.T) {
	payload := bytes.Repeat([]byte("servdisc"), 1024) // 8 KiB
	src, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	go func() {
		for {
			c, err := src.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(c)
		}
	}()

	proxy, err := Listen("127.0.0.1:0", src.Addr().String(), func(conn int) (Faults, Faults) {
		if conn == 0 {
			return Faults{}, Faults{CutAt: 1000}
		}
		return Faults{}, Faults{}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go proxy.Run(ctx)

	dial := func() []byte {
		c, err := net.Dial("tcp", proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return readAll(t, c)
	}
	if got := dial(); len(got) != 1000 {
		t.Fatalf("first (cut) connection delivered %d bytes, want 1000", len(got))
	}
	if got := dial(); !bytes.Equal(got, payload) {
		t.Fatalf("second (clean) connection delivered %d bytes, want the full %d", len(got), len(payload))
	}
	if got := proxy.Cuts(); got != 1 {
		t.Fatalf("proxy counted %d fired cuts after one cut and one clean connection, want 1", got)
	}
}

// TestProxyNumbersRelayedConnections pins what "the first N connections"
// means to a plan: a connection the target refused is not one of them. A
// feed client that redials faster than its publisher binds must not use up
// the drill's kills on dials that never carried a byte.
func TestProxyNumbersRelayedConnections(t *testing.T) {
	hold, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target := hold.Addr().String()
	hold.Close() // nobody listening yet

	proxy, err := Listen("127.0.0.1:0", target, func(conn int) (Faults, Faults) {
		if conn == 0 {
			return Faults{}, Faults{CutAt: 10}
		}
		return Faults{}, Faults{}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go proxy.Run(ctx)
	dial := func() []byte {
		c, err := net.Dial("tcp", proxy.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return readAll(t, c)
	}
	if got := dial(); len(got) != 0 {
		t.Fatalf("connection to a refusing target delivered %d bytes", len(got))
	}

	src, err := net.Listen("tcp", target)
	if err != nil {
		t.Skipf("could not rebind %s: %v", target, err)
	}
	defer src.Close()
	go func() {
		for {
			c, err := src.Accept()
			if err != nil {
				return
			}
			c.Write(bytes.Repeat([]byte("x"), 100))
			c.Close()
		}
	}()
	if got := dial(); len(got) != 10 {
		t.Fatalf("first relayed connection delivered %d bytes, want it cut at 10", len(got))
	}
	if got := dial(); len(got) != 100 {
		t.Fatalf("second relayed connection delivered %d bytes, want all 100", len(got))
	}
	if got := proxy.Cuts(); got != 1 {
		t.Fatalf("proxy counted %d fired cuts, want 1", got)
	}
}
