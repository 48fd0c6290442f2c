package clientproto

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/eventsim"
)

// TestNotifyBatchAttachDetachRace pins the registry's concurrency
// contract now that several delivery layers consume it (the binary,
// line, WebSocket and SSE edges): claims may begin and end while
// NotifyBatch calls are in flight from several goroutines (an owner's
// local batch racing entry-node batch receipts), every deliverer touches
// its batch's Shared cell and the replay rings record each call — all of
// it must be race-clean, and an end mid-batch must never corrupt a later
// recipient's view of the cell. Run under -race.
func TestNotifyBatchAttachDetachRace(t *testing.T) {
	g := NewSessionTable(nil)
	replay := g.EnableReplay()

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

	// Flappers: every client's claim churns, half per consumer key. The
	// deliverer honors the cell contract: synchronous Load/Store only,
	// copying what it needs before returning.
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
				release := g.Claim(h, func(n Notification) {
					enc, _ := n.Shared.Load(key).([]byte)
					if enc == nil {
						enc = append([]byte(nil), n.Diff...)
						n.Shared.Store(key, enc)
					}
					if string(enc) != n.Diff {
						panic("shared cell returned another consumer's encoding")
					}
					delivered.Add(1)
				})
				runtime.Gosched()
				release()
			}
		}(handles[i], key)
	}

	// Notifiers: concurrent batches with distinct versions and diffs, so
	// a cross-batch cell mixup is observable as a diff mismatch above.
	const url = "http://feeds.example.com/a.xml"
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
				g.NotifyBatch(handles, url, v, fmt.Sprintf("diff-%d", v), time.Time{})
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if replay.Newest(url) == 0 {
		t.Fatal("replay rings never recorded an update")
	}
	if delivered.Load() == 0 {
		t.Fatal("no deliverer ran while flapping")
	}
}

// TestSharedCellPerConsumerSlots pins the multi-consumer cell shape: one
// batch delivered to clients served by three different delivery layers
// (a binary frame, a JSON event, a line of text) encodes exactly once
// per layer, and no layer ever reads another's slot — the regression
// the keyed slots fix (a single Enc field thrashed between consumer
// types, degrading the encode-once edge to per-client encodes whenever
// transports interleave).
func TestSharedCellPerConsumerSlots(t *testing.T) {
	g := NewSessionTable(nil)

	keys := map[byte]*byte{'f': new(byte), 'j': new(byte), 'l': new(byte)}
	encodes := map[byte]int{}
	// Interleave the three consumers across the batch order; a handle's
	// first byte names its consumer.
	handles := []string{"f0", "j0", "l0", "f1", "j1", "l1", "f2", "j2", "l2"}
	for _, h := range handles {
		c := h[0]
		want := "enc-" + string(c)
		g.Claim(h, func(n Notification) {
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

func TestSessionDeliveryIsImmediate(t *testing.T) {
	sim := eventsim.New(1)
	g := NewSessionTable(sim.Now)

	var got []Notification
	release := g.Claim("alice", func(n Notification) { got = append(got, n) })
	for i := uint64(1); i <= 3; i++ {
		g.NotifyBatch([]string{"alice"}, "http://x/f.xml", i, "d", time.Time{})
	}
	// No simulated time passes: delivery happens inside NotifyBatch.
	if len(got) != 3 || got[0].Version != 1 || got[2].Version != 3 {
		t.Fatalf("structured notifications = %+v", got)
	}
	if got[0].Channel != "http://x/f.xml" || got[0].Client != "alice" || got[0].Diff != "d" {
		t.Fatalf("notification fields = %+v", got[0])
	}
	// A batch without a detection time is stamped by the table's clock.
	if !got[0].At.Equal(sim.Now()) {
		t.Fatalf("At = %v, want the table clock's %v", got[0].At, sim.Now())
	}
	if c := g.DeliveryStats(); c.NotifyBatches != 3 || c.BatchClients != 3 || c.Undeliverable != 0 {
		t.Fatalf("counters = %+v", c)
	}

	// After the claim ends the client has no session here: nothing is
	// delivered and the notification is counted.
	release()
	g.NotifyBatch([]string{"alice"}, "http://x/f.xml", 4, "d4", time.Time{})
	if len(got) != 3 {
		t.Fatalf("ended claim still delivered: %+v", got[3:])
	}
	if c := g.DeliveryStats(); c.Undeliverable != 1 {
		t.Fatalf("Undeliverable = %d after the claim ended, want 1", c.Undeliverable)
	}
}

// TestClaimReplacesAndEndIsIdentityGuarded: a newer claim on a handle —
// a resuming login or an in-process claim — displaces the holder, and
// the displaced holder's End or release never removes its successor.
func TestClaimReplacesAndEndIsIdentityGuarded(t *testing.T) {
	g := NewSessionTable(nil)

	var first, second, third int
	var evicted bool
	token, sess1, ok := g.Begin("alice", nil, TransportBinary, func() { evicted = true }, func(Notification) { first++ })
	if !ok {
		t.Fatal("first login refused")
	}
	if _, _, ok := g.Begin("alice", nil, TransportBinary, nil, func(Notification) { second++ }); ok {
		t.Fatal("a tokenless login displaced a live session")
	}
	_, sess2, ok := g.Begin("alice", token, TransportBinary, nil, func(Notification) { second++ })
	if !ok || !evicted {
		t.Fatalf("resuming login: ok=%v evicted=%v, want both", ok, evicted)
	}
	// The stale session's End must not remove its successor.
	g.End("alice", sess1)
	g.NotifyBatch([]string{"alice"}, "u", 1, "", time.Time{})
	if first != 0 || second != 1 {
		t.Fatalf("delivery counts = (%d, %d), want (0, 1)", first, second)
	}

	// An in-process claim displaces the session in turn; the session's
	// late End and the claim's own repeated release leave a newer claim.
	release := g.Claim("alice", func(Notification) { third++ })
	g.End("alice", sess2)
	release2 := g.Claim("alice", func(Notification) { third += 10 })
	release()
	g.NotifyBatch([]string{"alice"}, "u", 2, "", time.Time{})
	if second != 1 || third != 10 {
		t.Fatalf("after claims: second=%d third=%d, want 1 and 10", second, third)
	}
	release2()
	if c := g.DeliveryStats(); c.Undeliverable != 0 {
		t.Fatalf("Undeliverable = %d, want 0", c.Undeliverable)
	}
}

func TestNotifyBatchCountsUndeliverable(t *testing.T) {
	g := NewSessionTable(nil)
	// No session: the notification has nowhere to go.
	g.NotifyBatch([]string{"ghost"}, "http://x/f.xml", 1, "d", time.Time{})
	if c := g.DeliveryStats(); c.Undeliverable != 1 {
		t.Fatalf("Undeliverable = %d, want 1", c.Undeliverable)
	}
	// With replay rings on, the update is recorded all the same, so the
	// client can fetch it when it comes back.
	r := g.EnableReplay()
	g.NotifyBatch([]string{"ghost"}, "http://x/f.xml", 2, "d2", time.Time{})
	if entries, complete := r.From("http://x/f.xml", 1); !complete || len(entries) != 1 || entries[0].Version != 2 {
		t.Fatalf("ring after an undeliverable batch = %+v complete=%v, want v2", entries, complete)
	}
	if c := g.DeliveryStats(); c.Undeliverable != 2 || c.NotifyBatches != 2 || c.BatchClients != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestNotificationLegacyBody(t *testing.T) {
	n := Notification{Channel: "http://x/f.xml", Version: 12, Diff: "a\nb"}
	if got := n.LegacyBody(); got != "UPDATE http://x/f.xml v12\na\nb" {
		t.Fatalf("LegacyBody = %q", got)
	}
}

// TestClaimDisplacesBinarySession: an in-process claim on a handle held
// by a live binary session closes that session as displaced, and later
// notifications reach the claim instead of the socket.
func TestClaimDisplacesBinarySession(t *testing.T) {
	s := startServer(t, newFakeBackend())
	c := dialServer(t, s.Addr())
	defer c.conn.Close()
	c.send(&Login{ReqID: 1, Handle: "alice"})
	c.read() // ack
	c.read() // server info

	got := make(chan uint64, 1)
	release := s.table.Claim("alice", func(n Notification) { got <- n.Version })
	defer release()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(c.conn); err != io.EOF {
		t.Fatalf("displaced session read %v, want EOF", err)
	}
	if d := s.edge.Stats().ClosedDisplaced; d != 1 {
		t.Fatalf("ClosedDisplaced = %d, want 1", d)
	}
	if !notify(s, "alice", "u", 5, time.Time{}) {
		t.Fatal("the claim does not hold alice")
	}
	if v := <-got; v != 5 {
		t.Fatalf("claim received v%d, want v5", v)
	}
}
