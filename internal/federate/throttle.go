package federate

import (
	"context"

	"servdisc/internal/ratelimit"
)

// feedThrottle caps one feed connection at frames/s and bytes/s. Each
// decoded frame charges 1 to the frame limiter and what it moved
// Decoder.Offset by (a run's whole wire frame at its first frame) to the
// byte limiter; owing either stalls the reader, which through TCP
// backpressure stalls the publisher's bounded per-reader queue. A frame
// bigger than the whole byte burst (a bootstrap snapshot) is admitted and
// its excess owed afterwards, which is exactly the average-rate contract.
type feedThrottle struct {
	frames, bytes *ratelimit.Limiter
}

// newFeedThrottle builds the two limiters; a zero rate disables that cap.
// Bursts are one second's budget.
func newFeedThrottle(framesPerSec, bytesPerSec float64) *feedThrottle {
	return &feedThrottle{
		frames: ratelimit.New(framesPerSec, framesPerSec),
		bytes:  ratelimit.New(bytesPerSec, bytesPerSec),
	}
}

// admit charges one frame of the given wire size against both caps at the
// same instant and sleeps off the larger debt. stalled reports whether the
// frame had to wait at all; err is the context error on cancellation.
func (t *feedThrottle) admit(ctx context.Context, wireBytes int64) (stalled bool, err error) {
	wait := max(t.frames.Reserve(1), t.bytes.Reserve(float64(wireBytes)))
	if wait <= 0 {
		return false, nil
	}
	return true, ratelimit.Sleep(ctx, wait)
}
