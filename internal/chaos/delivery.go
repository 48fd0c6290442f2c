package chaos

import (
	"fmt"
	"sync"
	"time"

	"corona/internal/metrics"
)

type deliveryKey struct {
	client  string
	url     string
	version uint64
}

type clientChannel struct {
	client string
	url    string
}

// DeliveryLog is the notifier the chaos harness plugs into every node: it
// records each (client, channel, version) delivery so the checker can
// assert exactly-once delivery over the whole run and per-client liveness
// over the probe window.
type DeliveryLog struct {
	mu    sync.Mutex
	seen  map[deliveryKey]int
	total uint64
	dups  uint64

	// window counts per-(client, channel) deliveries since MarkWindow,
	// the probe phase's liveness evidence. windowSeen/windowDups scope the
	// exactly-once check to the same window: during a partition the fault
	// machinery on both sides legitimately re-points entries and notifies
	// the same origin version (at-least-once under faults is the
	// documented contract), so duplicates are an invariant violation only
	// once the cloud has converged.
	window         map[clientChannel]int
	windowSeen     map[deliveryKey]int
	windowDups     uint64
	windowFirstDup string

	// Now, when set, is the harness's (virtual) clock; each delivery
	// carrying a detection timestamp then records Now()-at into latency,
	// so chaos runs report end-to-end delivery percentiles.
	Now     func() time.Time
	latency *metrics.Histogram
}

// NewDeliveryLog creates an empty log.
func NewDeliveryLog() *DeliveryLog {
	return &DeliveryLog{
		seen:    make(map[deliveryKey]int),
		latency: metrics.NewRegistry().Histogram("chaos_delivery_latency_seconds", "detection to delivery", metrics.DurationBuckets),
	}
}

func (d *DeliveryLog) observe(at time.Time) {
	if d.Now == nil || at.IsZero() {
		return
	}
	d.latency.Observe(d.Now().Sub(at).Seconds())
}

// LatencyQuantile estimates the q-quantile of detection-to-delivery
// latency across the run; (0, false) with no timestamped deliveries.
func (d *DeliveryLog) LatencyQuantile(q float64) (float64, bool) {
	if d.latency.Count() == 0 {
		return 0, false
	}
	return d.latency.Quantile(q), true
}

func (d *DeliveryLog) record(client, url string, version uint64) {
	k := deliveryKey{client, url, version}
	d.total++
	d.seen[k]++
	if d.seen[k] > 1 {
		d.dups++
	}
	if d.window != nil {
		d.window[clientChannel{client, url}]++
		d.windowSeen[k]++
		if d.windowSeen[k] > 1 {
			d.windowDups++
			if d.windowFirstDup == "" {
				d.windowFirstDup = fmt.Sprintf("client %s, channel %s, version %d", client, url, version)
			}
		}
	}
}

// NotifyBatch implements core.Notifier.
func (d *DeliveryLog) NotifyBatch(clients []string, url string, version uint64, diff string, at time.Time) {
	d.mu.Lock()
	for _, c := range clients {
		d.record(c, url, version)
		d.observe(at)
	}
	d.mu.Unlock()
}

// MarkWindow starts (or restarts) the probe window.
func (d *DeliveryLog) MarkWindow() {
	d.mu.Lock()
	d.window = make(map[clientChannel]int)
	d.windowSeen = make(map[deliveryKey]int)
	d.windowDups = 0
	d.windowFirstDup = ""
	d.mu.Unlock()
}

// WindowCount reports how many notifications the client received for the
// channel since MarkWindow.
func (d *DeliveryLog) WindowCount(client, url string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.window[clientChannel{client, url}]
}

// Total returns the number of notifications delivered.
func (d *DeliveryLog) Total() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// Duplicates returns how many deliveries repeated an already-delivered
// (client, channel, version) triple.
func (d *DeliveryLog) Duplicates() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dups
}

// WindowDuplicates returns how many deliveries since MarkWindow repeated a
// (client, channel, version) triple already delivered inside the window.
func (d *DeliveryLog) WindowDuplicates() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.windowDups
}

// WindowFirstDuplicate describes the first in-window duplicate.
func (d *DeliveryLog) WindowFirstDuplicate() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.windowFirstDup
}
