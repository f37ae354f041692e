package serve

import (
	"errors"
	"sync/atomic"
)

// errBusy is the admission-control rejection: the server is saturated
// with heavy queries and this request should fast-fail (HTTP 429)
// rather than queue unboundedly. Queueing work the CPU can't reach
// only converts overload into timeout storms; a bounded waiting room
// plus fast rejection keeps latency honest under load.
var errBusy = errors.New("serve: too many in-flight queries")

// limiter bounds concurrently executing heavy queries with a
// chan-based semaphore. Two admission styles: tryAcquire for direct
// heavy queries (non-blocking, fail straight to 429) and acquire for
// coalesced batch executors (blocking — a batch aggregates many
// waiters, so parking it briefly is cheaper than failing them all —
// but only through a bounded waiting room).
type limiter struct {
	slots    chan struct{}
	maxWait  int64
	waiting  atomic.Int64
	rejected atomic.Uint64
}

// newLimiter builds a limiter with n execution slots and a waiting
// room of maxWait blocked acquirers.
func newLimiter(n int, maxWait int) *limiter {
	return &limiter{slots: make(chan struct{}, n), maxWait: int64(maxWait)}
}

func (l *limiter) tryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		l.rejected.Add(1)
		return false
	}
}

func (l *limiter) acquire() error {
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	if l.waiting.Add(1) > l.maxWait {
		l.waiting.Add(-1)
		l.rejected.Add(1)
		return errBusy
	}
	l.slots <- struct{}{}
	l.waiting.Add(-1)
	return nil
}

func (l *limiter) release() { <-l.slots }
