package netwire

import (
	"testing"

	"corona/internal/pastry"
)

// TestQueueKeepsOrderAcrossWrapAndGrowth drives a peer's ring queue
// through a wrap and then a growth while wrapped, and checks that the
// writer takes every message in send order, maxBatch at a time.
func TestQueueKeepsOrderAcrossWrapAndGrowth(t *testing.T) {
	p := &peer{t: &Transport{queueLen: 1024}, kick: make(chan struct{}, 1)}
	sent, got := 0, 0
	send := func(k int) {
		for ; k > 0; k-- {
			if !p.enqueue(pastry.Addr{}, pastry.Message{Hops: sent}) {
				t.Fatal("enqueue on a live peer failed")
			}
			sent++
		}
	}
	take := func() int {
		batch := p.take(nil)
		for _, m := range batch {
			if m.msg.Hops != got {
				t.Fatalf("took message %d, want %d", m.msg.Hops, got)
			}
			got++
		}
		return len(batch)
	}
	send(100) // the ring grows to 128
	if n := take(); n != maxBatch {
		t.Fatalf("took %d, want a batch of %d", n, maxBatch)
	}
	send(80) // wraps past the end of the ring
	if p.head == 0 || p.head+p.n <= len(p.queue) {
		t.Fatalf("ring head %d, %d queued in %d slots: want a wrapped ring", p.head, p.n, len(p.queue))
	}
	send(20) // grows while wrapped
	for take() > 0 {
	}
	if got != sent || p.n != 0 {
		t.Fatalf("took %d of %d messages, %d still queued", got, sent, p.n)
	}
	p.release()
	if p.queue != nil {
		t.Fatalf("drained queue kept %d slots after release", len(p.queue))
	}
}
