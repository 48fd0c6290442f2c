package core

import (
	"testing"
	"time"

	"corona/internal/clock"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/webserver"
)

// stubTimer and stubClock let a test arm timers without allocating, so
// what AllocsPerRun counts is the poll path's own work.
type stubTimer struct{}

func (*stubTimer) Stop() bool               { return true }
func (*stubTimer) Reset(time.Duration) bool { return true }

type stubClock struct {
	now   time.Time
	timer *stubTimer
}

func (c *stubClock) Now() time.Time                              { return c.now }
func (c *stubClock) AfterFunc(time.Duration, func()) clock.Timer { return c.timer }

// notModified answers every poll with an unchanged version.
type notModified struct{}

func (notModified) Fetch(string, uint64) (webserver.FetchResult, error) {
	return webserver.FetchResult{Version: 1}, nil
}
func (notModified) ReleaseBody([]byte) {}

// TestPollRescheduleAllocatesNothing pins the per-poll cost of the slot
// schedule: a poll that finds nothing new reschedules from the cached
// slot with the channel's one timer callback, allocating nothing. The
// ring view and the rank are built only when the level or the ring
// changes, never per poll.
func TestPollRescheduleAllocatesNothing(t *testing.T) {
	clk := &stubClock{now: eventsim.Epoch, timer: &stubTimer{}}
	overlay := pastry.NewNode(pastry.Addr{ID: ids.HashString("alloc-node"), Endpoint: "sim://0"}, nil, clk)
	overlay.Bootstrap()
	cfg := DefaultConfig()
	cfg.NodeCount = 1
	n := NewNode(cfg, overlay, clk, notModified{}, nil, nil)

	n.mu.Lock()
	ch := n.getChannel("http://feeds.example.net/alloc.xml")
	n.startPollingLocked(ch)
	n.mu.Unlock()
	if !ch.polling || ch.slotRank != 0 || ch.slotPollers != 1 {
		t.Fatalf("lone node: polling=%v slot %d of %d, want slot 0 of 1", ch.polling, ch.slotRank, ch.slotPollers)
	}
	allocs := testing.AllocsPerRun(100, func() {
		clk.now = clk.now.Add(cfg.PollInterval)
		n.pollChannel(ch)
	})
	if allocs != 0 {
		t.Fatalf("a poll and its reschedule allocate %.1f times, want 0", allocs)
	}
}

// TestNextSlotDelay covers the schedule arithmetic: the first poll waits
// for the slot instant itself, later ones for the first slot instant at
// least half an interval on, so a late timer does not shift the phase.
func TestNextSlotDelay(t *testing.T) {
	tau := 10 * time.Second
	base := time.Unix(0, 0).Add(100 * tau)
	for _, c := range []struct {
		now        time.Duration // past base
		phase, gap time.Duration
		want       time.Duration
	}{
		{0, 3 * time.Second, 0, 3 * time.Second},
		{3 * time.Second, 3 * time.Second, 0, 0},
		{4 * time.Second, 3 * time.Second, 0, 9 * time.Second},
		{3 * time.Second, 3 * time.Second, tau / 2, tau},              // on time
		{4 * time.Second, 3 * time.Second, tau / 2, 9 * time.Second},  // 1s late
		{9 * time.Second, 3 * time.Second, tau / 2, 14 * time.Second}, // slot moved +6s: gap ≤ 3τ/2
		{3 * time.Second, 7 * time.Second, tau / 2, 14 * time.Second}, // slot moved +4s: skips to ≥ τ/2
		{3 * time.Second, 9 * time.Second, tau / 2, 6 * time.Second},  // slot moved +6s: gap ≥ τ/2
	} {
		got := nextSlotDelay(base.Add(c.now), tau, c.phase, c.gap)
		if got != c.want {
			t.Errorf("now +%v phase %v gap %v: delay %v, want %v", c.now, c.phase, c.gap, got, c.want)
		}
	}
}
