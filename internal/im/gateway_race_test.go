package im

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/clock"
)

// TestNotifyBatchAttachDetachRace pins the gateway seam's concurrency
// contract now that several delivery layers consume it (the binary,
// line, WebSocket and SSE edges): deliverers may attach and detach
// while NotifyBatch calls are in flight from several goroutines (an
// owner's local batch racing entry-node batch receipts), every deliverer
// touches its batch's Shared cell and the update tap observes each call
// — all of it must be race-clean, and a detach mid-batch must never
// corrupt a later recipient's view of the cell. Run under -race.
func TestNotifyBatchAttachDetachRace(t *testing.T) {
	g := NewGateway(clock.Real{})

	var tapped atomic.Uint64
	g.SetTap(func(channel string, version uint64, diff string, at time.Time) {
		tapped.Add(1)
	})

	const clients = 24
	handles := make([]string, clients)
	for i := range handles {
		handles[i] = fmt.Sprintf("user%d", i)
	}
	// Two consumer keys stand in for the two encode-once delivery layers
	// sharing one batch cell.
	keyFrame, keyJSON := new(byte), new(byte)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var delivered atomic.Uint64

	// Flappers: every client's deliverer registration churns, half per
	// consumer key. The deliverer honors the cell contract: synchronous
	// Load/Store only, copying what it needs before returning.
	for i := range handles {
		key := keyFrame
		if i%2 == 1 {
			key = keyJSON
		}
		wg.Add(1)
		go func(h string, key any) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				detach := g.Attach(h, func(n Notification) {
					if n.Shared != nil {
						enc, _ := n.Shared.Load(key).([]byte)
						if enc == nil {
							enc = append([]byte(nil), n.Diff...)
							n.Shared.Store(key, enc)
						}
						if string(enc) != n.Diff {
							panic("shared cell returned another consumer's encoding")
						}
					}
					delivered.Add(1)
				})
				runtime.Gosched()
				detach()
			}
		}(handles[i], key)
	}

	// Notifiers: concurrent batches with distinct versions and diffs, so
	// a cross-batch cell mixup is observable as a diff mismatch above.
	var version atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := version.Add(1)
				g.NotifyBatch(handles, "http://feeds.example.com/a.xml", v, fmt.Sprintf("diff-%d", v), time.Time{})
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if tapped.Load() == 0 {
		t.Fatal("tap never observed an update")
	}
	if delivered.Load() == 0 {
		t.Fatal("no deliverer ran while flapping")
	}
}

// TestSharedCellPerConsumerSlots pins the multi-consumer cell shape: one
// batch delivered to clients attached through three different delivery
// layers (a binary frame, a JSON event, a line of text) encodes exactly
// once per layer, and no layer ever reads another's slot — the regression the keyed slots fix (a single Enc
// field thrashed between consumer types, degrading the encode-once edge
// to per-client encodes whenever transports interleave).
func TestSharedCellPerConsumerSlots(t *testing.T) {
	g := NewGateway(clock.Real{})

	keys := map[byte]*byte{'f': new(byte), 'j': new(byte), 'l': new(byte)}
	encodes := map[byte]int{}
	// Interleave the three consumers across the batch order; a handle's
	// first byte names its consumer.
	handles := []string{"f0", "j0", "l0", "f1", "j1", "l1", "f2", "j2", "l2"}
	for _, h := range handles {
		c := h[0]
		want := "enc-" + string(c)
		g.Attach(h, func(n Notification) {
			enc, _ := n.Shared.Load(keys[c]).(string)
			if enc == "" {
				encodes[c]++
				enc = want
				n.Shared.Store(keys[c], enc)
			}
			if enc != want {
				t.Errorf("client %s read %q from its consumer slot, want %q", h, enc, want)
			}
		})
	}
	g.NotifyBatch(handles, "http://feeds.example.com/a.xml", 7, "d", time.Time{})
	if encodes['f'] != 1 || encodes['j'] != 1 || encodes['l'] != 1 {
		t.Fatalf("encodes per consumer = %v, want 1 each", encodes)
	}
}
