package capture

import (
	"context"
	"errors"
	"io"

	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/trace"
)

// Recorder archives packets to a pcap stream, so a simulated (or live)
// capture can be replayed later through the same analysis pipeline.
// Marshal errors are impossible for synthesized packets; write errors are
// retained and surfaced by Err.
type Recorder struct {
	w   *trace.Writer
	err error
	// Written counts successfully archived packets.
	Written int
}

// NewRecorder wraps a pcap writer.
func NewRecorder(w *trace.Writer) *Recorder {
	return &Recorder{w: w}
}

// HandleBatch implements pipeline.BatchSink.
func (r *Recorder) HandleBatch(batch []packet.Packet) {
	if r.err != nil {
		return
	}
	for i := range batch {
		p := &batch[i]
		if err := r.w.WritePacket(p.Timestamp, p.Marshal()); err != nil {
			r.err = err
			return
		}
		r.Written++
	}
}

// Err reports the first write failure, if any.
func (r *Recorder) Err() error { return r.err }

// ReplayBatched streams a pcap reader into a batch sink, decoding each
// record with the appropriate link offset and delivering batches of up to
// batchSize packets (pipeline.DefaultBatchSize if batchSize <= 0). It
// returns the number of packets delivered and the first decode or read
// error that is not clean EOF. Cancelling ctx stops the replay at the
// next batch boundary and returns the context's error; packets delivered
// up to that point form an exact prefix of the trace.
func ReplayBatched(ctx context.Context, r *trace.Reader, sink pipeline.BatchSink, batchSize int) (int, error) {
	if batchSize <= 0 {
		batchSize = pipeline.DefaultBatchSize
	}
	batch := make([]packet.Packet, 0, batchSize)
	n := 0
	flush := func() {
		if len(batch) > 0 {
			sink.HandleBatch(batch)
			n += len(batch)
			batch = batch[:0]
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		rec, err := r.Next()
		if err != nil {
			flush()
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		var p *packet.Packet
		var derr error
		if r.LinkType() == trace.LinkTypeEthernet {
			p, derr = packet.Decode(rec.Data, rec.Time)
		} else {
			p, derr = packet.DecodeIP(rec.Data, rec.Time)
		}
		if derr != nil {
			// Skip undecodable records (truncated by snaplen); the
			// header-only capture keeps whole control packets, so this
			// only drops payload-bearing frames cut mid-header.
			continue
		}
		batch = append(batch, *p)
		if len(batch) >= batchSize {
			flush()
		}
	}
}

var _ pipeline.BatchSink = (*Recorder)(nil)
