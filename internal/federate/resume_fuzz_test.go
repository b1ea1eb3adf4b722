package federate

import (
	"bytes"
	"context"
	"io"
	"testing"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// FuzzResumeFrame attacks both ends of the resume protocol with hostile
// cursor bytes.
//
// Publisher side: arbitrary bytes presented as the client hello must
// never panic ServeConn, and whatever it serves must have a legal shape —
// nothing at all (hello rejected), a Resumed hello followed by exactly one
// snapshot frame at the publisher's generation, or a plain hello followed
// by the full snapshot. There is no fourth shape: a hostile cursor can be
// refused or downgraded, never half-honored.
//
// Aggregator side: a FrameResume is a client-to-publisher frame; an
// aggregator receiving one on an inbound feed must reject it leaving
// BOTH the merged inventory and the per-site dedup cursor untouched —
// unlike other rejected frames, a resume may not even open an epoch.
func FuzzResumeFrame(f *testing.F) {
	// A publisher with four sequenced events, closed so each ServeConn
	// drains and returns. The fuzz loop is sequential, so sharing it
	// across runs is safe.
	eng := core.NewShardedPassive(testCampus, nil, 2)
	pub := NewPublisherOpts("fuzz-site", eng, PublisherOptions{Heartbeat: -1})
	defer pub.Close()
	bld := packet.NewBuilder(0)
	ext := netaddr.MustParseV4("64.20.0.1")
	for i := 0; i < 4; i++ {
		eng.HandleBatch([]packet.Packet{*bld.SynAck(retBase, packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(60+i), Port: 80},
			packet.Endpoint{Addr: ext, Port: 33000}, 9, 8)})
	}
	eng.Close()
	pub.Close()
	fuzzEpoch, gen := pub.State().Epoch, pub.State().Seq
	full := len(BuildSnapshot(eng.Snapshot()).Services)

	f.Add(encodeFrames(f, Frame{V: WireVersion, Type: FrameResume, Resume: &ResumeCursor{Epoch: fuzzEpoch, Seq: 2}}))
	f.Add(encodeFrames(f, Frame{V: WireVersion, Type: FrameResume, Resume: &ResumeCursor{}}))
	f.Add(encodeFrames(f, Frame{V: WireVersion, Type: FrameResume, Resume: &ResumeCursor{Epoch: fuzzEpoch, Seq: ^uint64(0)}}))
	f.Add(encodeFrames(f, Frame{V: WireVersion, Type: FrameResume, Token: "tok", Resume: &ResumeCursor{Epoch: 1, Seq: 1}}))
	f.Add(encodeFrames(f,
		Frame{V: WireVersion, Type: FrameResume, Site: "seed-site", Epoch: 2, Seq: 9, Resume: &ResumeCursor{Epoch: 2, Seq: 9}},
		Frame{V: WireVersion, Type: FrameSnapshot, Site: "seed-site", Epoch: 2, Seq: 10, Snapshot: &Snapshot{}},
	))
	f.Add([]byte(`41 {"v":3,"type":"resume","resume":{"epoch":7,"seq":2}}` + "\n")) // a v3 peer
	f.Add([]byte("garbage hello"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}

		// --- Publisher: serve the hostile bytes as a client hello.
		var out bytes.Buffer
		rw := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), &out}
		_ = pub.ServeConn(context.Background(), rw)

		// The cursor the publisher should have honored, if any: the first
		// frame of the input when it is a well-formed resume hello.
		var cursor ResumeCursor
		if in, err := NewDecoder(bytes.NewReader(data)).Decode(); err == nil &&
			in.Type == FrameResume && in.Resume != nil {
			cursor = *in.Resume
		}
		var reply []Frame
		dec := NewDecoder(bytes.NewReader(out.Bytes()))
		for {
			fr, err := dec.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("publisher wrote an undecodable frame: %v", err)
			}
			reply = append(reply, *fr)
		}
		switch {
		case len(reply) == 0: // hello rejected — nothing served
		case reply[0].Type != FrameHello:
			t.Fatalf("reply starts with %q, want hello", reply[0].Type)
		case len(reply) != 2 || reply[1].Type != FrameSnapshot || reply[1].Seq != gen:
			t.Fatalf("reply is %d frames, want a hello and one snapshot at generation %d", len(reply), gen)
		case reply[0].Resumed:
			// A cursor of this stream: the keys changed past it alone.
			if cursor.Epoch != fuzzEpoch || cursor.Seq > gen {
				t.Fatalf("cursor %+v resumed on a stream at generation %d", cursor, gen)
			}
		case len(reply[1].Snapshot.Services) != full:
			t.Fatalf("fallback snapshot holds %d services, want all %d", len(reply[1].Snapshot.Services), full)
		}

		// --- Aggregator: resume frames in an inbound stream must be
		// rejected without any state motion, inventory or cursor.
		agg := seedAggregator(t)
		sdec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			fr, err := sdec.Decode()
			if err != nil {
				return
			}
			if fr.Type != FrameResume {
				_ = agg.Apply(fr) // explore state space; other types have their own fuzzers
				continue
			}
			preInv := invSignature(t, agg)
			preEpoch, preSeq, preOK := agg.SiteCursor(fr.Site)
			if aerr := agg.Apply(fr); aerr == nil {
				t.Fatalf("aggregator accepted a resume frame: %+v", fr)
			}
			if postInv := invSignature(t, agg); !bytes.Equal(preInv, postInv) {
				t.Fatalf("rejected resume frame mutated inventory\n pre: %s\npost: %s", preInv, postInv)
			}
			postEpoch, postSeq, postOK := agg.SiteCursor(fr.Site)
			if preEpoch != postEpoch || preSeq != postSeq || preOK != postOK {
				t.Fatalf("rejected resume frame moved site cursor: (%d,%d,%v) -> (%d,%d,%v)",
					preEpoch, preSeq, preOK, postEpoch, postSeq, postOK)
			}
		}
	})
}
