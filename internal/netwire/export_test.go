package netwire

import (
	"net"
	"time"

	"corona/internal/pastry"
)

// Test seams: tests shorten timings and shrink queues through these
// before the transport's first Send.

func (t *Transport) SetQueueLen(n int)              { t.queueLen = n }
func (t *Transport) SetDialTimeout(d time.Duration) { t.dialTimeout = d }
func (t *Transport) SetDialAttempts(n int)          { t.dialAttempts = n }
func (t *Transport) SetBackoffBase(d time.Duration) { t.backoffBase = d }
func (t *Transport) SetIdleTimeout(d time.Duration) { t.idleTimeout = d }

// ListenOn is Listen on a listener the test made, such as a wrapper that
// injects Accept errors.
func ListenOn(l net.Listener, deliver func(pastry.Message)) *Transport {
	return newTransport(l, deliver)
}
