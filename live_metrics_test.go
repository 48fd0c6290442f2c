package corona_test

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"corona"
)

// TestMetricsInventory pins the metric families a fully equipped node
// exposes: a durable node serving the binary, line and web edges. The
// golden file lists every # HELP and # TYPE line and every sample's name
// with its label set, sorted, so a counter that drops off /metrics, gains
// a label or changes its help text shows up here.
func TestMetricsInventory(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	n, err := corona.StartLiveNode(corona.LiveConfig{
		Bind:         "127.0.0.1:0",
		DataDir:      t.TempDir(),
		ClientBind:   "127.0.0.1:0",
		WebBind:      "127.0.0.1:0",
		AdminBind:    "127.0.0.1:0",
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.ServeIM("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	_, body := scrape(t, "http://"+n.AdminAddr(), "/metrics")
	got := metricsInventory(body)

	golden, err := os.ReadFile("testdata/metrics_inventory.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	slices.Sort(want)
	for _, line := range want {
		if _, found := slices.BinarySearch(got, line); !found {
			t.Errorf("/metrics lacks %s", line)
		}
	}
	for _, line := range got {
		if _, found := slices.BinarySearch(want, line); !found {
			t.Errorf("/metrics has unlisted %s", line)
		}
	}
	if t.Failed() {
		t.Logf("inventory of this scrape:\n%s", strings.Join(got, "\n"))
	}
}

// metricsInventory reduces a text exposition to its sorted, distinct
// # HELP and # TYPE lines plus one entry per sample name and label set,
// values dropped. Histogram bucket bounds are dropped too (le stays as a
// bare label name), so a family's buckets make one entry.
func metricsInventory(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, hasLabels := strings.Cut(series, "{")
		if !hasLabels {
			out = append(out, name)
			continue
		}
		var pairs []string
		for _, pair := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if strings.HasPrefix(pair, "le=") {
				pair = "le"
			}
			pairs = append(pairs, pair)
		}
		slices.Sort(pairs)
		out = append(out, name+"{"+strings.Join(pairs, ",")+"}")
	}
	slices.Sort(out)
	return slices.Compact(out)
}
