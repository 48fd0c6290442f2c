// Command corona-load is Corona's live-cluster benchmark: three real
// LiveNodes in one process on loopback TCP with their WALs on, polling a
// benchmark-owned HTTP origin, delivering to in-process subscribers and
// (on churn) to one SDK connection and one WebSocket session. It measures
// how soon a subscriber holds the diff after the origin changes and what
// polling that costs the origin, end to end (--trace 0) or layer by layer
// (--trace 1). See README.md in this directory.
//
//	bash corona-load/run.sh --workload longtail --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the verdict
// and every metric; the lines before it are the human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix. All three run against the same node
// configuration; only the channel population, the update rate and the
// subscription traffic differ.
type workload struct {
	name string
	why  string
	// channels hosted at the origin, each with subsPerChan in-process
	// subscribers spread round-robin over the entry nodes.
	channels    int
	subsPerChan int
	// meanUpdate is each channel's mean gap between versions.
	meanUpdate time.Duration
	// churnPerSec replaces that many in-process subscriptions a second
	// (unsubscribe one, subscribe a fresh handle to the same channel on
	// a random entry node), on an open-loop schedule.
	churnPerSec float64
	// edgeChannels is the channel slice the SDK connection and the
	// WebSocket session hold; sdkOpsPerSec is the rate of the SDK's
	// ack-blocking Subscribe/Unsubscribe cycle over the next slice.
	edgeChannels int
	sdkOpsPerSec float64
}

var workloads = []workload{
	{
		name:        "longtail",
		why:         "the paper's micronews population: many channels, few subscribers each, so polling, fetch, diff and dissemination do the work",
		channels:    150,
		subsPerChan: 3,
		meanUpdate:  3 * time.Second,
	},
	{
		name:        "flashcrowd",
		why:         "one channel with a crowd above the delegate threshold and a version every ~10 ms: owner fan-out, delegates, batching, subscription ingest",
		channels:    1,
		subsPerChan: 1200,
		meanUpdate:  10 * time.Millisecond,
	},
	{
		name:         "churn",
		why:          "subscriptions turn over beside steady reads: routing, owner state, WAL records, replication, and the SDK and WebSocket edges",
		channels:     60,
		subsPerChan:  6,
		meanUpdate:   2 * time.Second,
		churnPerSec:  40,
		edgeChannels: 6,
		sdkOpsPerSec: 20,
	},
}

func main() {
	name := flag.String("workload", "", "workload to run: longtail, flashcrowd or churn")
	seed := flag.Int64("seed", 1, "seed for addresses, content, update times and subscription schedules")
	seconds := flag.Int("seconds", 10, "length of the measurement window in seconds")
	traceOn := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "corona-load: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corona-load:", err)
		os.Exit(1)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	b, err := json.Marshal(out.verdict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corona-load:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the final line's JSON object.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// output is one run's report lines and verdict.
type output struct {
	report  []string
	verdict verdict
}

func (o *output) linef(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// set records a metric.
func (o *output) set(name string, v float64, unit string) {
	o.verdict.Metrics[name] = metric{Value: v, Unit: unit}
}

// printMetrics appends every metric to the report, sorted by name.
func (o *output) printMetrics() {
	names := make([]string, 0, len(o.verdict.Metrics))
	for n := range o.verdict.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.verdict.Metrics[n]
		o.linef("%-36s %14.4f %s", n, m.Value, m.Unit)
	}
}
