package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"corona/internal/eventsim"
	"corona/internal/honeycomb"
	"corona/internal/ids"
	"corona/internal/pastry"
)

// TestSubtreeAggregatesAreOrderFree pins the aggregation phase to one
// result per state: a node owning a few hundred channels of varied sizes,
// subscriber counts and update intervals, and holding several contacts'
// row aggregates, must fold them into the same cluster sets on every
// run, however Go orders its maps. Every factor is finite and positive,
// so reflect.DeepEqual's float == is a bit-for-bit comparison here.
func TestSubtreeAggregatesAreOrderFree(t *testing.T) {
	clk := &stubClock{now: eventsim.Epoch, timer: &stubTimer{}}
	overlay := pastry.NewNode(pastry.Addr{ID: ids.HashString("aggregate-node"), Endpoint: "sim://0"}, nil, clk)
	overlay.Bootstrap()
	cfg := DefaultConfig()
	cfg.NodeCount = 4096
	n := NewNode(cfg, overlay, clk, notModified{}, nil, nil)
	env := n.env()
	rng := rand.New(rand.NewSource(33))

	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < 300; i++ {
		ch := n.getChannel(fmt.Sprintf("http://feeds.example.net/%d.xml", i))
		ch.isOwner = true
		ch.sizeBytes = 1 + rng.Intn(200_000)
		ch.subs.count = 1 + rng.Intn(1000)
		ch.est.ewma = 1 + rng.Float64()*86_400
		ch.level = rng.Intn(env.MaxLevel + 1)
	}
	for row := 0; row < 3; row++ {
		n.clusterIn[row] = make(map[int]*honeycomb.ClusterSet)
		for col := 0; col < 8; col++ {
			cs := honeycomb.NewClusterSet(tradeoffBins, env.MaxLevel)
			for j := 0; j < 40; j++ {
				cs.Add(honeycomb.ChannelFactors{
					Q:     1 + rng.Float64()*500,
					S:     0.01 + rng.Float64()*3,
					U:     1 + rng.Float64()*1e5,
					Level: rng.Intn(env.MaxLevel + 1),
				})
			}
			n.clusterIn[row][col] = cs
		}
	}

	want := n.subtreeAggregatesLocked(env)
	for run := 1; run < 20; run++ {
		if got := n.subtreeAggregatesLocked(env); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d folded different aggregates from the same state", run)
		}
	}
}
