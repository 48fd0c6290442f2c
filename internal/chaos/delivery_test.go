package chaos

import (
	"strings"
	"testing"
	"time"
)

const (
	feedA = "http://feeds.example.net/a.xml"
	feedB = "http://feeds.example.net/b.xml"
)

func TestDeliveryLogTotalsAndDuplicates(t *testing.T) {
	d := NewDeliveryLog()
	var none time.Time
	d.NotifyBatch([]string{"alice", "bob"}, feedA, 1, "", none)
	d.NotifyBatch([]string{"alice"}, feedA, 2, "", none)
	d.NotifyBatch([]string{"alice"}, feedB, 1, "", none) // same version, other channel
	if d.Total() != 4 || d.Duplicates() != 0 {
		t.Fatalf("distinct triples: total %d, dups %d; want 4, 0", d.Total(), d.Duplicates())
	}
	// alice/A/1 twice more, bob/A/1 once more: every repeat of a triple
	// already delivered is a duplicate, not only the second copy.
	d.NotifyBatch([]string{"alice", "bob"}, feedA, 1, "", none)
	d.NotifyBatch([]string{"alice"}, feedA, 1, "", none)
	if d.Total() != 7 || d.Duplicates() != 3 {
		t.Fatalf("after repeats: total %d, dups %d; want 7, 3", d.Total(), d.Duplicates())
	}
	// Outside a probe window nothing counts toward it.
	if d.WindowCount("alice", feedA) != 0 || d.WindowDuplicates() != 0 {
		t.Fatalf("window counted before MarkWindow: count %d, dups %d", d.WindowCount("alice", feedA), d.WindowDuplicates())
	}
}

func TestDeliveryLogMarkWindowResets(t *testing.T) {
	d := NewDeliveryLog()
	var none time.Time
	d.NotifyBatch([]string{"alice"}, feedA, 1, "", none)
	d.MarkWindow()
	// A triple first delivered before the window is not an in-window
	// duplicate; the window checks exactly-once from its own start.
	d.NotifyBatch([]string{"alice"}, feedA, 1, "", none)
	if d.WindowCount("alice", feedA) != 1 || d.WindowDuplicates() != 0 || d.WindowFirstDuplicate() != "" {
		t.Fatalf("first window delivery: count %d, dups %d, first %q", d.WindowCount("alice", feedA), d.WindowDuplicates(), d.WindowFirstDuplicate())
	}
	d.NotifyBatch([]string{"alice"}, feedA, 1, "", none)
	d.NotifyBatch([]string{"bob"}, feedB, 3, "", none)
	d.NotifyBatch([]string{"bob"}, feedB, 3, "", none)
	if d.WindowCount("alice", feedA) != 2 || d.WindowCount("bob", feedB) != 2 || d.WindowDuplicates() != 2 {
		t.Fatalf("window: alice %d, bob %d, dups %d; want 2, 2, 2", d.WindowCount("alice", feedA), d.WindowCount("bob", feedB), d.WindowDuplicates())
	}
	if first := d.WindowFirstDuplicate(); !strings.Contains(first, "alice") || !strings.Contains(first, feedA) || !strings.Contains(first, "version 1") {
		t.Fatalf("first duplicate %q, want alice's %s version 1", first, feedA)
	}
	if d.Total() != 5 || d.Duplicates() != 3 {
		t.Fatalf("run totals: total %d, dups %d; want 5, 3", d.Total(), d.Duplicates())
	}

	d.MarkWindow()
	if d.WindowCount("alice", feedA) != 0 || d.WindowCount("bob", feedB) != 0 || d.WindowDuplicates() != 0 || d.WindowFirstDuplicate() != "" {
		t.Fatalf("after MarkWindow: alice %d, bob %d, dups %d, first %q", d.WindowCount("alice", feedA), d.WindowCount("bob", feedB), d.WindowDuplicates(), d.WindowFirstDuplicate())
	}
	// The run totals survive a window restart.
	if d.Total() != 5 || d.Duplicates() != 3 {
		t.Fatalf("run totals after MarkWindow: total %d, dups %d; want 5, 3", d.Total(), d.Duplicates())
	}
}

func TestDeliveryLogLatencyQuantile(t *testing.T) {
	d := NewDeliveryLog()
	if q, ok := d.LatencyQuantile(0.5); ok || q != 0 {
		t.Fatalf("empty log: (%v, %v), want (0, false)", q, ok)
	}
	detected := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// No clock yet: a timestamped delivery records no latency.
	d.NotifyBatch([]string{"alice"}, feedA, 1, "", detected)
	if q, ok := d.LatencyQuantile(0.5); ok || q != 0 {
		t.Fatalf("no clock: (%v, %v), want (0, false)", q, ok)
	}
	d.Now = func() time.Time { return detected.Add(2 * time.Second) }
	// With a clock, a delivery without a detection stamp still records none.
	d.NotifyBatch([]string{"alice"}, feedA, 2, "", time.Time{})
	if _, ok := d.LatencyQuantile(0.5); ok {
		t.Fatal("an unstamped delivery recorded a latency")
	}
	d.NotifyBatch([]string{"alice", "bob"}, feedA, 3, "", detected)
	q, ok := d.LatencyQuantile(0.5)
	if !ok {
		t.Fatal("timestamped deliveries recorded no latency")
	}
	// Both observations are 2 s: the estimate lies in the (1 s, 2.5 s]
	// bucket.
	if q <= 1 || q > 2.5 {
		t.Fatalf("p50 = %v s, want within (1, 2.5]", q)
	}
}
