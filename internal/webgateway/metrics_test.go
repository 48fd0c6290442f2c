package webgateway_test

import (
	"strings"
	"testing"
	"time"

	"corona"
)

// TestMetricsRegistration checks that the gateway's counters reach a
// node's metric registry: a LiveNode serving the web edge exposes every
// corona_web_* family, fed from LiveStats.Web (the gateway's Counters
// snapshot) through the node's one stats table.
func TestMetricsRegistration(t *testing.T) {
	n, err := corona.StartLiveNode(corona.LiveConfig{
		Bind:         "127.0.0.1:0",
		WebBind:      "127.0.0.1:0",
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.WebAddr() == "" {
		t.Fatal("node started with WebBind has no web address")
	}
	var sb strings.Builder
	if err := n.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`corona_web_sessions{transport="ws"}`,
		`corona_web_sessions{transport="sse"}`,
		"corona_web_replay_hits_total",
		"corona_web_replay_misses_total",
		"corona_web_replay_wraps_total",
		`corona_web_notify_dropped_total{cause="slow_client"}`,
		`corona_web_disconnects_total{cause="displaced"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}
