package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/store"
	"corona/internal/webserver"
)

// TestAssembledMemberRecoversUnderVirtualClock runs the durable store
// under the simulator's clock: a member assembled on simnet with a store
// directory (CommitWindow < 0, so every record commits as it is
// appended) owns a channel, is killed, and is re-assembled on the same
// endpoint and directory. It rejoins through the surviving member and
// owns the channel again with every subscriber, which only its store can
// have kept: the channel has no replicas.
func TestAssembledMemberRecoversUnderVirtualClock(t *testing.T) {
	sim := eventsim.New(11)
	net := simnet.New(sim, simnet.FixedLatency(2*time.Millisecond))
	origin := webserver.NewOrigin()
	ring := net.Ring(2, sim.RNG("assemble-ids"))
	self := ring[1].Self()
	url := ""
	for i := 0; url == ""; i++ {
		if u := fmt.Sprintf("http://feeds.example.net/%d.xml", i); ring[1].IsRoot(ids.HashString(u)) {
			url = u
		}
	}
	origin.Host(webserver.ChannelConfig{
		URL:       url,
		SizeBytes: 4096,
		Process:   webserver.PeriodicProcess{Origin: t0.Add(time.Minute), Interval: 10 * time.Minute},
	})
	dir := t.TempDir()
	assemble := func(overlay *pastry.Node, storeDir string) *core.Member {
		cfg := core.DefaultConfig()
		cfg.PollInterval = 5 * time.Minute
		cfg.MaintenanceInterval = 10 * time.Minute
		cfg.OwnerReplicas = 0
		m, err := core.Assemble(cfg, core.Seams{
			Overlay:  overlay,
			Clock:    sim,
			Fetcher:  &core.OriginFetcher{Origin: origin, Clock: sim},
			Notifier: newRecordingNotifier(),
			Store:    store.Options{Dir: storeDir, CommitWindow: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	survivor := assemble(ring[0], "")
	member := assemble(ring[1], dir)
	survivor.Start()
	member.Start()
	clients := []string{"alice", "bob", "carol"}
	for _, c := range clients {
		if err := survivor.Subscribe(c, url); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Minute)
	subscribers := func(m *core.Member) []string {
		rec, ok := m.Records(url)
		if !ok || !rec.Owner {
			return nil
		}
		var got []string
		for c := range rec.Subscribers {
			got = append(got, c)
		}
		slices.Sort(got)
		return got
	}
	if got := subscribers(member); !slices.Equal(got, clients) {
		t.Fatalf("owner before the kill holds %v, want %v", got, clients)
	}

	member.Crash()
	net.Crash(self.Endpoint)
	sim.RunFor(time.Minute) // deliveries in flight to the dead member lapse
	net.Restart(self.Endpoint)

	restarted := assemble(net.Node(self), dir)
	joined := make(chan bool, 1)
	restarted.Join([]pastry.Addr{survivor.Self()}, 10*time.Second, func(ok bool) { joined <- ok })
	sim.RunFor(time.Minute)
	select {
	case ok := <-joined:
		if !ok {
			t.Fatal("restarted member did not rejoin")
		}
	default:
		t.Fatal("rejoin did not finish within a minute")
	}
	if got := subscribers(restarted); !slices.Equal(got, clients) {
		t.Fatalf("restarted owner holds %v, want %v", got, clients)
	}
	if err := restarted.Stop(); err != nil {
		t.Fatal(err)
	}
}
