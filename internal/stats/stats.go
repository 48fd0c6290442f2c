// Package stats provides the measurement and reporting primitives the
// simulated evaluation harness (internal/experiments) uses: bucketed time
// series (the x-axis of Figures 3, 4, 9, 10), weighted means (the paper's
// subscription-weighted update detection time), and fixed-width table
// rendering for paper-shaped output. It keeps no quantiles and no queue
// state: latency quantiles come from metrics.Histogram, and a live
// node's per-peer send queues are on its /metrics as corona_peer_queue_*.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// TimeSeries accumulates samples into fixed-width time buckets, each
// recording sum and count, and reports per-bucket means (detection
// times).
type TimeSeries struct {
	start  time.Time
	bucket time.Duration
	sums   []float64
	counts []float64
}

// NewTimeSeries creates a series starting at start with the given bucket
// width.
func NewTimeSeries(start time.Time, bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		panic("stats: bucket width must be positive")
	}
	return &TimeSeries{start: start, bucket: bucket}
}

// Add records a sample value at time t. Samples before start are dropped.
func (ts *TimeSeries) Add(t time.Time, value float64) {
	ts.AddWeighted(t, value, 1)
}

// AddWeighted records a sample carrying the given weight — for example a
// detection latency experienced by q subscribers at once, which the
// paper's averages weigh per subscription (§3.1).
func (ts *TimeSeries) AddWeighted(t time.Time, value, weight float64) {
	offset := t.Sub(ts.start)
	if offset < 0 || weight <= 0 {
		return
	}
	idx := int(offset / ts.bucket)
	for idx >= len(ts.sums) {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
	ts.sums[idx] += value * weight
	ts.counts[idx] += weight
}

// Point is one rendered bucket.
type Point struct {
	// T is the bucket start offset from the series start.
	T time.Duration
	// Value is the bucket's mean.
	Value float64
	// N is the total sample weight in the bucket.
	N float64
}

// Means returns per-bucket sample means; empty buckets yield NaN.
func (ts *TimeSeries) Means() []Point {
	out := make([]Point, len(ts.sums))
	for i := range ts.sums {
		v := math.NaN()
		if ts.counts[i] > 0 {
			v = ts.sums[i] / float64(ts.counts[i])
		}
		out[i] = Point{T: time.Duration(i) * ts.bucket, Value: v, N: ts.counts[i]}
	}
	return out
}

// WeightedMean accumulates a weighted average incrementally.
type WeightedMean struct {
	sum    float64
	weight float64
}

// Add folds in a value with the given weight.
func (m *WeightedMean) Add(value, weight float64) {
	m.sum += value * weight
	m.weight += weight
}

// Mean returns the weighted average, or NaN when nothing was added.
func (m *WeightedMean) Mean() float64 {
	if m.weight == 0 {
		return math.NaN()
	}
	return m.sum / m.weight
}

// Weight returns the total weight accumulated.
func (m *WeightedMean) Weight() float64 { return m.weight }

// Table renders fixed-width rows for the benchmark output, mirroring how
// the paper presents Table 2.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// FormatDuration renders a duration the way the paper's axes do: seconds
// under two minutes, minutes under two hours, hours otherwise.
func FormatDuration(d time.Duration) string {
	switch {
	case d < 2*time.Minute:
		return fmt.Sprintf("%.0fs", d.Seconds())
	case d < 2*time.Hour:
		return fmt.Sprintf("%.1fm", d.Minutes())
	default:
		return fmt.Sprintf("%.1fh", d.Hours())
	}
}
