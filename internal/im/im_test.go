package im

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"corona/internal/eventsim"
)

func TestRegisterLoginDeliver(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	s.Register("alice")
	var got []Message
	if err := s.Login("alice", func(m Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Send("corona", "alice", "hello"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Body != "hello" || got[0].From != "corona" {
		t.Fatalf("delivered = %+v", got)
	}
}

func TestOfflineBuffering(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	s.Register("bob")
	for i := 0; i < 3; i++ {
		if err := s.Send("corona", "bob", fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, buffered, _ := s.Counters()
	if buffered != 3 {
		t.Fatalf("buffered = %d, want 3", buffered)
	}
	var got []string
	if err := s.Login("bob", func(m Message) { got = append(got, m.Body) }); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "m0,m1,m2" {
		t.Fatalf("flush order wrong: %v", got)
	}
}

func TestSingleLogin(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	s.Register("carol")
	if err := s.Login("carol", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Login("carol", func(Message) {}); err != ErrAlreadyLoggedIn {
		t.Fatalf("second login err = %v, want ErrAlreadyLoggedIn", err)
	}
	s.Logout("carol")
	if err := s.Login("carol", func(Message) {}); err != nil {
		t.Fatalf("re-login after logout: %v", err)
	}
}

func TestUnknownRecipient(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	if err := s.Send("corona", "nobody", "x"); err != ErrUnknownUser {
		t.Fatalf("err = %v, want ErrUnknownUser", err)
	}
	if err := s.Login("nobody", func(Message) {}); err != ErrUnknownUser {
		t.Fatalf("login err = %v, want ErrUnknownUser", err)
	}
}

func TestSenderRateLimit(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	s.SetRateLimit(2)
	s.Register("dave")
	s.Login("dave", func(Message) {})
	if err := s.Send("corona", "dave", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Send("corona", "dave", "2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Send("corona", "dave", "3"); err != ErrRateLimited {
		t.Fatalf("third send err = %v, want ErrRateLimited", err)
	}
	// After a minute the window resets.
	sim.AfterFunc(61*time.Second, func() {
		if err := s.Send("corona", "dave", "4"); err != nil {
			t.Fatalf("send after window reset: %v", err)
		}
	})
	sim.RunFor(2 * time.Minute)
}

// fakeNode records subscription calls.
type fakeNode struct {
	subs, unsubs []string
	fail         bool
}

func (f *fakeNode) Subscribe(client, url string) error {
	if f.fail {
		return fmt.Errorf("overlay down")
	}
	f.subs = append(f.subs, client+" "+url)
	return nil
}

func (f *fakeNode) Unsubscribe(client, url string) error {
	f.unsubs = append(f.unsubs, client+" "+url)
	return nil
}

func TestGatewayParsesCommands(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	node := &fakeNode{}
	g := NewGateway(s, sim, "corona", node)

	s.Register("alice")
	var replies []string
	s.Login("alice", func(m Message) { replies = append(replies, m.Body) })

	s.Send("alice", g.Handle(), "subscribe http://example.com/f.xml")
	s.Send("alice", g.Handle(), "unsubscribe http://example.com/f.xml")
	s.Send("alice", g.Handle(), "gibberish")
	s.Send("alice", g.Handle(), "too many words here")
	sim.RunFor(time.Second)

	if len(node.subs) != 1 || node.subs[0] != "alice http://example.com/f.xml" {
		t.Fatalf("subs = %v", node.subs)
	}
	if len(node.unsubs) != 1 {
		t.Fatalf("unsubs = %v", node.unsubs)
	}
	if len(replies) != 4 {
		t.Fatalf("replies = %v", replies)
	}
	if !strings.Contains(replies[0], "subscribed") || !strings.Contains(replies[2], "error") {
		t.Fatalf("reply contents wrong: %v", replies)
	}
}

func TestGatewayReportsNodeErrors(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	node := &fakeNode{fail: true}
	g := NewGateway(s, sim, "corona", node)
	s.Register("bob")
	var replies []string
	s.Login("bob", func(m Message) { replies = append(replies, m.Body) })
	s.Send("bob", g.Handle(), "subscribe http://x/f.xml")
	sim.RunFor(time.Second)
	if len(replies) != 1 || !strings.Contains(replies[0], "error") {
		t.Fatalf("replies = %v", replies)
	}
}

func TestGatewayPacesNotifications(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	g := NewGateway(s, sim, "corona", &fakeNode{})
	g.SetPaceInterval(100 * time.Millisecond)

	var arrivals []time.Time
	for i := 0; i < 5; i++ {
		u := fmt.Sprintf("user%d", i)
		s.Register(u)
		s.Login(u, func(m Message) { arrivals = append(arrivals, sim.Now()) })
	}
	for i := 0; i < 5; i++ {
		g.NotifyBatch([]string{fmt.Sprintf("user%d", i)}, "http://x/f.xml", 2, "diff", time.Time{})
	}
	sim.RunFor(5 * time.Second)
	if len(arrivals) != 5 {
		t.Fatalf("arrivals = %d, want 5", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i].Sub(arrivals[i-1]); gap < 100*time.Millisecond {
			t.Fatalf("notifications not paced: gap %v", gap)
		}
	}
	if g.Notified("http://x/f.xml") != 5 {
		t.Fatalf("Notified = %d", g.Notified("http://x/f.xml"))
	}
}

func TestGatewayRecoversFromRateLimit(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	s.SetRateLimit(2)
	g := NewGateway(s, sim, "corona", &fakeNode{})
	g.SetPaceInterval(time.Millisecond)

	delivered := 0
	for i := 0; i < 4; i++ {
		u := fmt.Sprintf("u%d", i)
		s.Register(u)
		s.Login(u, func(m Message) { delivered++ })
	}
	for i := 0; i < 4; i++ {
		g.NotifyBatch([]string{fmt.Sprintf("u%d", i)}, "http://x/f.xml", 1, "d", time.Time{})
	}
	// Two go out immediately; the rest must drain after window resets.
	sim.RunFor(5 * time.Minute)
	if delivered != 4 {
		t.Fatalf("delivered = %d after rate-limit recovery, want 4", delivered)
	}
	if g.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d, want 0", g.QueueDepth())
	}
}

func TestNotifyCountAccumulates(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	g := NewGateway(s, sim, "corona", &fakeNode{})
	g.NotifyCount("http://x/f.xml", 3, 250, time.Time{})
	g.NotifyCount("http://x/f.xml", 4, 250, time.Time{})
	if got := g.Notified("http://x/f.xml"); got != 500 {
		t.Fatalf("Notified = %d, want 500", got)
	}
}

func TestGatewayAttachedDeliveryBypassesPacing(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	g := NewGateway(s, sim, "corona", &fakeNode{})
	g.SetPaceInterval(time.Hour) // pacing would stall a legacy queue

	var got []Notification
	detach := g.Attach("alice", func(n Notification) { got = append(got, n) })
	for i := uint64(1); i <= 3; i++ {
		g.NotifyBatch([]string{"alice"}, "http://x/f.xml", i, "d", time.Time{})
	}
	// No simulated time passes: structured delivery is immediate.
	if len(got) != 3 || got[0].Version != 1 || got[2].Version != 3 {
		t.Fatalf("structured notifications = %+v", got)
	}
	if got[0].Channel != "http://x/f.xml" || got[0].Client != "alice" || got[0].Diff != "d" {
		t.Fatalf("notification fields = %+v", got[0])
	}
	if g.QueueDepth() != 0 {
		t.Fatalf("legacy queue depth = %d, want 0", g.QueueDepth())
	}
	if g.Notified("http://x/f.xml") != 3 {
		t.Fatalf("Notified = %d", g.Notified("http://x/f.xml"))
	}

	// After detach, notifications fall back to the legacy IM path.
	detach()
	s.Register("alice")
	var legacy []string
	s.Login("alice", func(m Message) { legacy = append(legacy, m.Body) })
	g.SetPaceInterval(time.Millisecond)
	g.NotifyBatch([]string{"alice"}, "http://x/f.xml", 4, "d4", time.Time{})
	sim.RunFor(time.Second)
	if len(legacy) != 1 || !strings.HasPrefix(legacy[0], "UPDATE http://x/f.xml v4") {
		t.Fatalf("legacy fallback = %v", legacy)
	}
}

func TestGatewayAttachReplacesAndGuardsDetach(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	g := NewGateway(s, sim, "corona", &fakeNode{})

	var first, second int
	detach1 := g.Attach("alice", func(Notification) { first++ })
	g.Attach("alice", func(Notification) { second++ })
	// The stale registration's detach must not remove its successor.
	detach1()
	if !g.Attached("alice") {
		t.Fatal("stale detach removed the replacement deliverer")
	}
	g.NotifyBatch([]string{"alice"}, "u", 1, "", time.Time{})
	if first != 0 || second != 1 {
		t.Fatalf("delivery counts = (%d, %d), want (0, 1)", first, second)
	}
}

func TestGatewayCountsUndeliverable(t *testing.T) {
	sim := eventsim.New(1)
	s := NewService(sim)
	g := NewGateway(s, sim, "corona", &fakeNode{})
	g.SetPaceInterval(time.Millisecond)
	// No deliverer, no IM account: the notification has nowhere to go.
	g.NotifyBatch([]string{"ghost"}, "http://x/f.xml", 1, "d", time.Time{})
	sim.RunFor(time.Second)
	if g.Undeliverable() != 1 {
		t.Fatalf("Undeliverable = %d, want 1", g.Undeliverable())
	}
}

func TestNotificationLegacyBody(t *testing.T) {
	n := Notification{Channel: "http://x/f.xml", Version: 12, Diff: "a\nb"}
	if got := n.LegacyBody(); got != "UPDATE http://x/f.xml v12\na\nb" {
		t.Fatalf("LegacyBody = %q", got)
	}
}
