package corona_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"corona"
	"corona/client"
)

// scrape GETs an admin-plane path and returns status and body.
func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metricValue finds one exposition sample by its exact name (labels
// included) and parses its value.
func metricValue(body, sample string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, sample+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestAdminPlaneEndToEnd is the observability acceptance scenario: a
// durable node with the admin plane up serves a real subscribe → poll →
// update → notify round trip to an SDK client, after which /metrics
// reports the protocol counters and a count in every notification
// pipeline stage histogram (owner_send, entry_recv, client_enqueue),
// /channels lists the channel with its subscriber, poll slot and
// versions, and /readyz is 200.
func TestAdminPlaneEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	feedURL, stopOrigin := startFailoverOrigin(t, 300*time.Millisecond)
	defer stopOrigin()

	node, err := corona.StartLiveNode(corona.LiveConfig{
		Bind:         "127.0.0.1:0",
		ClientBind:   "127.0.0.1:0",
		AdminBind:    "127.0.0.1:0",
		DataDir:      t.TempDir(),
		PollInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	base := "http://" + node.AdminAddr()

	if code, body := scrape(t, base, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after bootstrap: got %d (body %q)", code, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx, []string{node.ClientAddr()},
		client.Options{Handle: "alice", RetryWait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Subscribe(ctx, feedURL); err != nil {
		t.Fatal(err)
	}

	select {
	case n, ok := <-conn.Notifications():
		if !ok {
			t.Fatal("notification stream closed before first update")
		}
		if n.Channel != feedURL {
			t.Fatalf("notification for %s, want %s", n.Channel, feedURL)
		}
	case <-ctx.Done():
		t.Fatal("timed out waiting for first update notification")
	}

	// The subscription record reaches the WAL at the end of the store's
	// group-commit window, which the first notification can beat: scrape
	// once that commit has landed.
	var metricsBody string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		_, metricsBody = scrape(t, base, "/metrics")
		if v, _ := metricValue(metricsBody, "corona_store_commit_latency_seconds_count"); v >= 1 || time.Now().After(deadline) {
			break
		}
	}
	mustAtLeast := func(sample string, min float64) {
		t.Helper()
		v, ok := metricValue(metricsBody, sample)
		if !ok {
			t.Fatalf("/metrics missing sample %s", sample)
		}
		if v < min {
			t.Fatalf("%s = %v, want >= %v", sample, v, min)
		}
	}
	mustAtLeast("corona_polls_issued_total", 1)
	mustAtLeast("corona_poll_errors_total", 0)
	mustAtLeast("corona_origin_dials_total", 1)
	mustAtLeast("corona_updates_detected_total", 1)
	mustAtLeast("corona_subscriptions_held", 1)
	mustAtLeast("corona_channels_owned", 1)
	mustAtLeast(`corona_client_sessions{transport="binary"}`, 1)
	mustAtLeast("corona_store_enabled", 1)
	mustAtLeast("corona_overlay_joined", 1)
	for _, stage := range []string{"owner_send", "entry_recv", "client_enqueue"} {
		mustAtLeast(`corona_notify_stage_latency_seconds_count{stage="`+stage+`"}`, 1)
	}
	// The store has committed the subscription record, so the
	// native-bucket commit histogram must carry observations.
	mustAtLeast("corona_store_commit_latency_seconds_count", 1)

	code, channelsBody := scrape(t, base, "/channels")
	if code != http.StatusOK {
		t.Fatalf("/channels: got %d", code)
	}
	if !strings.Contains(channelsBody, feedURL) {
		t.Fatalf("/channels does not list %s: %s", feedURL, channelsBody)
	}
	if !strings.Contains(channelsBody, `"subscriber_count": 1`) {
		t.Fatalf("/channels does not report the subscriber: %s", channelsBody)
	}
	// A lone node is its channel's only poller: the level it polls at,
	// one poller, and slot 0 of 1 (the whole ring is in its leaf set).
	for _, field := range []string{`"level": 0`, `"pollers": 1`, `"poll_slot": 0`} {
		if !strings.Contains(channelsBody, field) {
			t.Fatalf("/channels lacks %s: %s", field, channelsBody)
		}
	}
	// Next to the version it knows of, /channels reports the version of
	// the content a node diffs against. A lone node learns versions only
	// from its own polls, so its content never trails (it leads for the
	// moment a detection takes).
	var versions []struct {
		LastVersion    *uint64 `json:"last_version"`
		ContentVersion *uint64 `json:"content_version"`
	}
	if err := json.Unmarshal([]byte(channelsBody), &versions); err != nil {
		t.Fatalf("/channels: %v", err)
	}
	if len(versions) != 1 || versions[0].LastVersion == nil || versions[0].ContentVersion == nil ||
		*versions[0].LastVersion == 0 || *versions[0].ContentVersion < *versions[0].LastVersion {
		t.Fatalf("/channels versions: want one channel with content_version >= last_version > 0: %s", channelsBody)
	}

	if code, body := scrape(t, base, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: got %d (body %.80q)", code, body)
	}
}
