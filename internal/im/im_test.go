package im

import (
	"testing"
	"time"

	"corona/internal/eventsim"
)

func TestGatewayAttachedDeliveryIsImmediate(t *testing.T) {
	sim := eventsim.New(1)
	g := NewGateway(sim)

	var got []Notification
	detach := g.Attach("alice", func(n Notification) { got = append(got, n) })
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
	if c := g.CounterSnapshot(); c.NotifyBatches != 3 || c.BatchClients != 3 || c.Undeliverable != 0 {
		t.Fatalf("counters = %+v", c)
	}

	// After detach the client has no session here: nothing is delivered
	// and the notification is counted.
	detach()
	g.NotifyBatch([]string{"alice"}, "http://x/f.xml", 4, "d4", time.Time{})
	if len(got) != 3 {
		t.Fatalf("detached client still delivered: %+v", got[3:])
	}
	if c := g.CounterSnapshot(); c.Undeliverable != 1 {
		t.Fatalf("Undeliverable = %d after detach, want 1", c.Undeliverable)
	}
}

func TestGatewayAttachReplacesAndGuardsDetach(t *testing.T) {
	sim := eventsim.New(1)
	g := NewGateway(sim)

	var first, second int
	detach1 := g.Attach("alice", func(Notification) { first++ })
	g.Attach("alice", func(Notification) { second++ })
	// The stale registration's detach must not remove its successor.
	detach1()
	if !g.Attached("alice") {
		t.Fatal("stale detach removed the replacement deliverer")
	}
	g.NotifyBatch([]string{"alice"}, "u", 1, "", time.Time{})
	if first != 0 || second != 1 {
		t.Fatalf("delivery counts = (%d, %d), want (0, 1)", first, second)
	}
}

func TestGatewayCountsUndeliverable(t *testing.T) {
	sim := eventsim.New(1)
	g := NewGateway(sim)
	// No deliverer: the notification has nowhere to go.
	g.NotifyBatch([]string{"ghost"}, "http://x/f.xml", 1, "d", time.Time{})
	if c := g.CounterSnapshot(); c.Undeliverable != 1 {
		t.Fatalf("Undeliverable = %d, want 1", c.Undeliverable)
	}
}

func TestNotificationLegacyBody(t *testing.T) {
	n := Notification{Channel: "http://x/f.xml", Version: 12, Diff: "a\nb"}
	if got := n.LegacyBody(); got != "UPDATE http://x/f.xml v12\na\nb" {
		t.Fatalf("LegacyBody = %q", got)
	}
}
