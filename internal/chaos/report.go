package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// Result is the outcome of one scenario execution.
type Result struct {
	Scenario      string      `json:"scenario"`
	Seed          int64       `json:"seed"`
	Nodes         int         `json:"nodes"`
	LiveNodes     int         `json:"live_nodes"`
	Channels      int         `json:"channels"`
	Subscriptions int         `json:"subscriptions"`
	Converged     bool        `json:"converged"`
	Violations    []Violation `json:"violations,omitempty"`
	Deliveries    uint64      `json:"deliveries"`
	Duplicates    uint64      `json:"duplicates"`
	// DeliveryLatencyP50/P99 are detection-to-delivery percentiles in
	// virtual time, estimated from the delivery log's histogram; zero
	// when no delivery carried a detection timestamp.
	DeliveryLatencyP50 time.Duration `json:"delivery_latency_p50_ns,omitempty"`
	DeliveryLatencyP99 time.Duration `json:"delivery_latency_p99_ns,omitempty"`
	LostChannels       int           `json:"lost_channels"`
	PeakOwnerNotifies  uint64        `json:"peak_owner_notifies"`
	PeakOwnerMsgs      uint64        `json:"peak_owner_msgs"`
	WallTime           time.Duration `json:"wall_time_ns"`
}

// Failed reports whether the scenario violated any invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// benchEntry mirrors the bench2json schema so BENCH_scale.json sits in
// the trajectory next to BENCH_wire/store/client/fanout.json and
// robustness regressions diff like perf regressions do.
type benchEntry struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type benchReport struct {
	Goos       string       `json:"goos"`
	Goarch     string       `json:"goarch"`
	Scale      string       `json:"scale"`
	Seed       int64        `json:"seed"`
	Benchmarks []benchEntry `json:"benchmarks"`
	Results    []Result     `json:"results"`
}

// WriteReport emits the suite's BENCH_scale.json: one bench2json-shaped
// entry per scenario (plus the full per-scenario results for debugging).
func WriteReport(w io.Writer, scaleName string, seed int64, results []Result) error {
	rep := benchReport{
		Goos:    runtime.GOOS,
		Goarch:  runtime.GOARCH,
		Scale:   scaleName,
		Seed:    seed,
		Results: results,
	}
	for _, res := range results {
		rep.Benchmarks = append(rep.Benchmarks, benchEntry{
			Name:       fmt.Sprintf("ChaosScenario/%s/nodes=%d", res.Scenario, res.Nodes),
			Package:    "corona/internal/chaos",
			Iterations: 1,
			Metrics: map[string]float64{
				"invariant_violations": float64(len(res.Violations)),
				"deliveries":           float64(res.Deliveries),
				"dup_deliveries":       float64(res.Duplicates),
				"delivery_p50_s":       res.DeliveryLatencyP50.Seconds(),
				"delivery_p99_s":       res.DeliveryLatencyP99.Seconds(),
				"lost_channels":        float64(res.LostChannels),
				"peak_owner_notifies":  float64(res.PeakOwnerNotifies),
				"peak_owner_msgs":      float64(res.PeakOwnerMsgs),
				"subscriptions":        float64(res.Subscriptions),
				"live_nodes":           float64(res.LiveNodes),
				"wall_s":               res.WallTime.Seconds(),
			},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
