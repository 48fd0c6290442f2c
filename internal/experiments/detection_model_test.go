package experiments

import (
	"math"
	"testing"
	"time"

	"corona/internal/core"
)

// TestDetectionMatchesModelAtFixedLevel holds a small cloud at one
// polling level and compares the measured mean detection time against
// ModelDetectionMean's τ/(2n) (§3.1). Update instants fall at offsets
// that drift against the poll schedule (the update interval is not a
// multiple of τ), so each update waits a uniformly placed gap. Evenly
// spread pollers meet the model; independent random poll phases would
// wait τ/(n+1) instead, 60% above it at n = 4.
func TestDetectionMatchesModelAtFixedLevel(t *testing.T) {
	scale := Scale{
		Nodes:               4,
		Channels:            60,
		Subscriptions:       6000, // ample budget: Lite drops every channel to level 0
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: 30 * time.Minute,
		Duration:            10 * time.Hour,
		WarmUp:              2 * time.Hour,
		Bucket:              15 * time.Minute,
		Seed:                3,
	}
	opts := Options{Scheme: core.SchemeLite, UpdateEvery: 47 * time.Minute}
	h := NewHarness(scale, opts)
	h.Run()

	for i, p := range h.PollersPerChannel() {
		if p != scale.Nodes {
			t.Fatalf("channel %d has %d pollers, want all %d (level 0)", i, p, scale.Nodes)
		}
	}
	measured := h.Recorder.WeightedChannelMean()
	model := h.ModelDetectionMean()
	t.Logf("measured %.1f s, model %.1f s", measured, model)
	if math.Abs(measured/model-1) > 0.15 {
		t.Fatalf("measured mean detection %.1f s is not within 15%% of the model's %.1f s", measured, model)
	}
}
