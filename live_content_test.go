package corona_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"corona"
	"corona/internal/diffengine"
)

// TestLiveDiffsSpanOneVersion runs three live nodes over loopback against
// an HTTP origin that names its versions with decimal ETags, with
// subscribers on every node so that all three poll the feed. Once the
// ring has warmed up, every delivered diff must start from the version
// delivered before it, so that every wedge member could apply it, and the
// nodes together count no more base mismatches than there are nodes: a
// node whose content trails the version it knows of catches up on its
// next poll instead of shipping a diff across several versions.
func TestLiveDiffsSpanOneVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	feedURL, stopOrigin := startFailoverOrigin(t, 250*time.Millisecond)
	defer stopOrigin()
	const nodeCount = 3
	var nodes []*corona.LiveNode
	var seeds []string
	for i := 0; i < nodeCount; i++ {
		n, err := corona.StartLiveNode(corona.LiveConfig{
			Bind:                "127.0.0.1:0",
			Seeds:               seeds,
			PollInterval:        150 * time.Millisecond,
			MaintenanceInterval: time.Second,
			NodeCountHint:       nodeCount,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		seeds = []string{nodes[0].Addr()}
	}

	type delivery struct{ base, version uint64 }
	var mu sync.Mutex
	got := map[string][]delivery{}
	for i := 0; i < 10; i++ {
		client := fmt.Sprintf("c%d", i)
		node := nodes[i%nodeCount]
		node.Attach(client, func(n corona.Notification) {
			base, version, err := diffengine.Versions(n.Diff)
			if err != nil || version != n.Version {
				t.Errorf("%s: notification v%d carries diff %.40q (%v)", client, n.Version, n.Diff, err)
				return
			}
			mu.Lock()
			got[client] = append(got[client], delivery{base, version})
			mu.Unlock()
		})
		if err := node.Subscribe(client, feedURL); err != nil {
			t.Fatal(err)
		}
	}

	// Warm up until every node polls the feed and holds content to diff
	// against, then watch 16 more versions.
	mismatches := func() (sum float64) {
		for _, node := range nodes {
			var b strings.Builder
			node.Metrics().WriteText(&b)
			v, ok := metricValue(b.String(), "corona_diff_base_mismatch_total")
			if !ok {
				t.Fatal("/metrics lacks corona_diff_base_mismatch_total")
			}
			sum += v
		}
		return sum
	}
	deliveries := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		n := map[string]int{}
		for client, ds := range got {
			n[client] = len(ds)
		}
		return n
	}
	wait := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !done(); time.Sleep(50 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no %s after 30s", what)
			}
		}
	}
	wait("warm-up", func() bool {
		for _, node := range nodes {
			if info, ok := node.Channel(feedURL); !ok || !info.Polling || info.ContentVersion == 0 {
				return false
			}
		}
		return true
	})
	warm, before := deliveries(), mismatches()
	const watched = 16
	wait(fmt.Sprintf("%d deliveries past warm-up", watched), func() bool {
		return deliveries()["c0"] >= warm["c0"]+watched
	})

	after := mismatches()
	mu.Lock()
	defer mu.Unlock()
	for client, ds := range got {
		// A node whose content still trails at the end of warm-up may
		// detect the next version before its catch-up poll.
		for i := warm[client] + 2; i < len(ds); i++ {
			if ds[i].base != ds[i-1].version {
				t.Errorf("%s: delivery %d is a diff v%d -> v%d, after v%d", client, i, ds[i].base, ds[i].version, ds[i-1].version)
			}
		}
	}
	if after-before > nodeCount {
		t.Errorf("corona_diff_base_mismatch_total grew by %v over %d nodes past warm-up, want at most %d", after-before, nodeCount, nodeCount)
	}
}
