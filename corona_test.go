package corona

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSimulationEndToEnd(t *testing.T) {
	sim, err := NewSimulation(Options{
		Nodes:        16,
		PollInterval: 5 * time.Minute,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	const url = "http://news.example.com/feed.xml"
	if err := sim.HostFeed(url, 20*time.Minute); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Notification
	err = sim.Subscribe("alice", url, func(n Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(3 * time.Hour)

	mu.Lock()
	defer mu.Unlock()
	if len(got) < 5 {
		t.Fatalf("alice received %d notifications over 3h of 20m updates, want ≥5", len(got))
	}
	for _, n := range got {
		if n.Channel != url || n.Client != "alice" {
			t.Fatalf("misaddressed notification: %+v", n)
		}
		if n.Diff == "" || !strings.Contains(n.Diff, "CORONA-DIFF") {
			t.Fatalf("notification carries no encoded diff: %+v", n)
		}
	}
	// Versions strictly increase.
	for i := 1; i < len(got); i++ {
		if got[i].Version <= got[i-1].Version {
			t.Fatalf("versions not increasing: %d then %d", got[i-1].Version, got[i].Version)
		}
	}
	st := sim.Stats()
	if st.Polls == 0 || st.UpdatesDetected == 0 || st.Notifications == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestSimulationUnsubscribeStopsNotifications(t *testing.T) {
	sim, err := NewSimulation(Options{Nodes: 8, PollInterval: 5 * time.Minute, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	const url = "http://news.example.com/u.xml"
	sim.HostFeed(url, 15*time.Minute)
	count := 0
	sim.Subscribe("bob", url, func(Notification) { count++ })
	sim.RunFor(time.Hour)
	sim.Unsubscribe("bob", url)
	sim.RunFor(time.Minute) // let the unsubscribe propagate
	before := count
	sim.RunFor(2 * time.Hour)
	if count != before {
		t.Fatalf("notifications continued after unsubscribe: %d -> %d", before, count)
	}
}

func TestSimulationChannelStatus(t *testing.T) {
	sim, err := NewSimulation(Options{Nodes: 16, PollInterval: 5 * time.Minute, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	const url = "http://news.example.com/s.xml"
	sim.HostFeed(url, time.Hour)
	sim.Subscribe("carol", url, func(Notification) {})
	sim.RunFor(30 * time.Minute)
	st := sim.ChannelStatus(url)
	if st.Subscribers != 1 {
		t.Fatalf("subscribers = %d, want 1", st.Subscribers)
	}
	if st.Pollers < 1 {
		t.Fatalf("pollers = %d, want ≥1", st.Pollers)
	}
}

// TestChannelStatusCountsOneChannel gives the one node of a cloud two
// channels with different subscriber counts: each channel's status
// reports its own subscribers, not the owner's total.
func TestChannelStatusCountsOneChannel(t *testing.T) {
	sim, err := NewSimulation(Options{Nodes: 1, PollInterval: 5 * time.Minute, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	const a, b = "http://news.example.com/a.xml", "http://news.example.com/b.xml"
	for _, url := range []string{a, b} {
		if err := sim.HostFeed(url, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range []struct{ client, url string }{{"carol", a}, {"dave", a}, {"erin", b}} {
		if err := sim.Subscribe(sub.client, sub.url, func(Notification) {}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Minute)
	for url, want := range map[string]int{a: 2, b: 1} {
		if got := sim.ChannelStatus(url).Subscribers; got != want {
			t.Errorf("ChannelStatus(%s).Subscribers = %d, want %d", url, got, want)
		}
	}
}

func TestHostFeedValidation(t *testing.T) {
	sim, err := NewSimulation(Options{Nodes: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.HostFeed("http://x/f.xml", 0); err == nil {
		t.Fatal("zero update interval accepted")
	}
	if err := sim.HostFeed("http://x/f.xml", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := sim.HostFeed("http://x/f.xml", time.Hour); err == nil {
		t.Fatal("duplicate feed accepted")
	}
}

func TestSubscribeValidation(t *testing.T) {
	sim, err := NewSimulation(Options{Nodes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Subscribe("x", "http://x/f.xml", nil); err == nil {
		t.Fatal("nil callback accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewSimulation(Options{Nodes: -1}); err == nil {
		t.Fatal("negative Nodes accepted")
	}
	if _, err := NewSimulation(Options{PollInterval: -time.Second}); err == nil {
		t.Fatal("negative PollInterval accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	cases := map[Scheme]string{
		Lite:     "Corona-Lite",
		Fast:     "Corona-Fast",
		Fair:     "Corona-Fair",
		FairSqrt: "Corona-Fair-Sqrt",
		FairLog:  "Corona-Fair-Log",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
