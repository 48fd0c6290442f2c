package main

import (
	"bufio"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"corona"
	cmetrics "corona/internal/metrics"
	"corona/internal/store"
)

// stages are the notification pipeline stages the nodes time from the
// detection instant into corona_notify_stage_latency_seconds.
var stages = []string{"owner_send", "entry_recv", "client_enqueue", "web_enqueue"}

// nodeSnap is one node's counters at one instant, read in process: the
// LiveStats seam, and the stage histograms and wire-byte counter from
// its metric registry (rendered into memory, never scraped over HTTP).
type nodeSnap struct {
	ls      corona.LiveStats
	stages  map[string][]uint64 // per-bucket counts, overflow last
	wireOut float64
	dropped uint64
}

// snapshot is everything the benchmark compares across a window: process
// CPU and allocation, the origin's answers, receipts, and every node.
type snapshot struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	ok, notMod uint64
	receipts   uint64
	nodes      []nodeSnap
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func takeSnapshot(c *cluster, o *origin) snapshot {
	s := snapshot{cpu: processCPU(), receipts: receipts.Load()}
	s.ok, s.notMod = o.ok.Load(), o.notModified.Load()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.totalAlloc, s.numGC = m.TotalAlloc, m.NumGC
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUSample[0].Value.Float64()
	}
	for _, n := range c.nodes {
		s.nodes = append(s.nodes, snapNode(n))
	}
	return s
}

func snapNode(n *corona.LiveNode) nodeSnap {
	ns := nodeSnap{ls: n.Stats(), stages: make(map[string][]uint64), dropped: n.WireDropped()}
	reg := n.Metrics()
	if reg == nil {
		return ns
	}
	var b strings.Builder
	reg.WriteText(&b)
	samples := parseText(b.String())
	for _, st := range stages {
		ns.stages[st] = stageBuckets(samples, st)
	}
	ns.wireOut = samples["corona_wire_bytes_sent_total"]
	return ns
}

// parseText reads Prometheus text exposition into sample key → value,
// the key being the metric name with its label set as printed.
func parseText(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// stageBuckets turns one stage's cumulative le buckets into per-bucket
// counts aligned with cmetrics.DurationBuckets plus the overflow.
func stageBuckets(samples map[string]float64, stage string) []uint64 {
	bounds := cmetrics.DurationBuckets
	out := make([]uint64, len(bounds)+1)
	var prev float64
	for i := 0; i <= len(bounds); i++ {
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		cum := samples[`corona_notify_stage_latency_seconds_bucket{stage="`+stage+`",le="`+le+`"}`]
		if cum >= prev {
			out[i] = uint64(cum - prev)
		}
		prev = cum
	}
	return out
}

// stageMs estimates the q-quantile in milliseconds of one stage over a
// window, pooling every node's histogram.
func stageMs(before, after snapshot, stage string, q float64) float64 {
	bounds := cmetrics.DurationBuckets
	pooled := make([]uint64, len(bounds)+1)
	for i := range after.nodes {
		d := subCounts(after.nodes[i].stages[stage], before.nodes[i].stages[stage])
		for j := range d {
			pooled[j] += d[j]
		}
	}
	return bucketQuantile(bounds, pooled, q) * 1000
}

// commitMs estimates the median group-commit latency over a window from
// the stores' native histograms, pooled across nodes.
func commitMs(before, after snapshot) (p50 float64, commits uint64, busy time.Duration) {
	bounds := make([]float64, len(store.CommitLatencyBounds))
	for i, b := range store.CommitLatencyBounds {
		bounds[i] = float64(b) / float64(time.Millisecond)
	}
	pooled := make([]uint64, len(bounds)+1)
	for i := range after.nodes {
		d := subCounts(after.nodes[i].ls.Store.CommitLatency, before.nodes[i].ls.Store.CommitLatency)
		for j := range d {
			pooled[j] += d[j]
			commits += d[j]
		}
		busy += after.nodes[i].ls.Store.CommitLatencySum - before.nodes[i].ls.Store.CommitLatencySum
	}
	return bucketQuantile(bounds, pooled, 0.5), commits, busy
}

// delta sums after−before of one LiveStats counter across nodes.
func delta(before, after snapshot, f func(corona.LiveStats) uint64) float64 {
	var d float64
	for i := range after.nodes {
		d += float64(f(after.nodes[i].ls)) - float64(f(before.nodes[i].ls))
	}
	return d
}
