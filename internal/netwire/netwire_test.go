package netwire_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/clock"
	"corona/internal/ids"
	"corona/internal/netwire"
	"corona/internal/pastry"
	"corona/internal/wirebin"
)

type typedPayload struct {
	Text  string
	Count int
}

// AppendBinary implements pastry.Payload.
func (p *typedPayload) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, p.Text)
	return wirebin.AppendSint(dst, p.Count), nil
}

// DecodeBinary implements pastry.Payload.
func (p *typedPayload) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	p.Text = r.String()
	p.Count = r.Sint()
	return r.Err()
}

// seqPayload identifies one message in the concurrent-sender stress test.
type seqPayload struct {
	Sender int
	Seq    int
	Fill   string
}

// AppendBinary implements pastry.Payload.
func (p *seqPayload) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendSint(dst, p.Sender)
	dst = wirebin.AppendSint(dst, p.Seq)
	return wirebin.AppendString(dst, p.Fill), nil
}

// DecodeBinary implements pastry.Payload.
func (p *seqPayload) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	p.Sender = r.Sint()
	p.Seq = r.Sint()
	p.Fill = r.String()
	return r.Err()
}

// failingPayload cannot produce its binary form.
type failingPayload struct{}

// AppendBinary implements pastry.Payload, and always fails.
func (*failingPayload) AppendBinary(dst []byte) ([]byte, error) {
	return dst, errors.New("no binary form")
}

// DecodeBinary implements pastry.Payload.
func (*failingPayload) DecodeBinary([]byte) error { return nil }

// materialize decodes m's payload as the struct its test message type
// carries, as the handler registered for that type would.
func materialize(m *pastry.Message) error {
	switch m.Type {
	case "test.typed":
		p, err := pastry.PayloadAs[typedPayload](*m)
		m.Payload = p
		return err
	case "test.seq":
		p, err := pastry.PayloadAs[seqPayload](*m)
		m.Payload = p
		return err
	}
	return nil
}

// collector accumulates delivered messages.
type collector struct {
	mu   sync.Mutex
	msgs []pastry.Message
	ch   chan struct{}
	win  window // released once per delivery when set
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 128)}
}

// window paces senders so that fewer messages are outstanding (sent but
// not yet delivered) than a peer's queue holds. Send drops a message when
// the queue is full, and the tests pacing through a window assert that
// nothing is lost.
type window chan struct{}

// acquire takes a slot before a Send, reporting false if no delivery
// frees one within 10s.
func (w window) acquire(t *testing.T) bool {
	select {
	case w <- struct{}{}:
		return true
	case <-time.After(10 * time.Second):
		t.Errorf("no delivery freed a send slot in 10s (%d outstanding)", len(w))
		return false
	}
}

// release frees the slot of one delivered message.
func (w window) release() { <-w }

func (c *collector) deliver(m pastry.Message) {
	// The transport hands over lazily-decoded payloads (the overlay
	// decodes just before running a handler); do the same here so
	// assertions see typed structs.
	if err := materialize(&m); err != nil {
		panic(err)
	}
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	if c.win != nil {
		c.win.release()
	}
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) wait(t *testing.T, n int) []pastry.Message {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]pastry.Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		got := len(c.msgs)
		c.mu.Unlock()
		select {
		case <-c.ch:
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages (got %d)", n, got)
		}
	}
}

func TestSendDeliversTypedPayload(t *testing.T) {
	rx := newCollector()
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := netwire.Listen("127.0.0.1:0", rx.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	to := pastry.Addr{ID: ids.HashString("b"), Endpoint: b.Addr()}
	msg := pastry.Message{
		Type:    "test.typed",
		Key:     ids.HashString("key"),
		From:    pastry.Addr{ID: ids.HashString("a"), Endpoint: a.Addr()},
		Hops:    3,
		Cover:   2,
		Payload: &typedPayload{Text: "hello", Count: 42},
	}
	if err := a.Send(to, msg); err != nil {
		t.Fatal(err)
	}
	got := rx.wait(t, 1)[0]
	if got.Type != "test.typed" || got.Hops != 3 || got.Cover != 2 {
		t.Fatalf("envelope fields lost: %+v", got)
	}
	if got.Key != msg.Key {
		t.Fatalf("key mismatch: %v vs %v", got.Key, msg.Key)
	}
	p, ok := got.Payload.(*typedPayload)
	if !ok {
		t.Fatalf("payload type = %T", got.Payload)
	}
	if p.Text != "hello" || p.Count != 42 {
		t.Fatalf("payload = %+v", p)
	}
}

// TestSendToDeadEndpointReportsFault covers the asynchronous failure
// contract: Send succeeds locally and the dial failure arrives through
// the fault callback after the retry budget.
func TestSendToDeadEndpointReportsFault(t *testing.T) {
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetDialTimeout(200 * time.Millisecond)
	a.SetBackoffBase(10 * time.Millisecond)

	faults := make(chan pastry.Addr, 1)
	a.OnSendFault(func(to pastry.Addr, err error) {
		select {
		case faults <- to:
		default:
		}
	})
	dead := pastry.Addr{ID: ids.HashString("dead"), Endpoint: "127.0.0.1:1"}
	if err := a.Send(dead, pastry.Message{Type: "x"}); err != nil {
		t.Fatalf("async Send should accept locally, got %v", err)
	}
	select {
	case to := <-faults:
		if to.ID != dead.ID {
			t.Fatalf("fault for %v, want %v", to, dead)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no fault reported for dead endpoint")
	}
	if a.Dropped() == 0 {
		t.Fatal("undeliverable message not counted as dropped")
	}
}

// TestPeerQueueStats covers the backpressure observability surface:
// per-peer queue depth/capacity snapshots and per-peer drop counters.
func TestPeerQueueStats(t *testing.T) {
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetQueueLen(4)
	a.SetDialTimeout(100 * time.Millisecond)
	a.SetDialAttempts(1)

	dead := pastry.Addr{ID: ids.HashString("dead"), Endpoint: "127.0.0.1:1"}
	for i := 0; i < 32; i++ {
		if err := a.Send(dead, pastry.Message{Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	// The per-peer and transport-wide counters are bumped one after the
	// other, so any single snapshot pair can disagree transiently; poll
	// until the counters are both nonzero and agree (they quiesce once
	// every queued message has been dropped).
	deadline := time.Now().Add(5 * time.Second)
	for {
		qs := a.PeerQueues()
		if len(qs) == 1 && qs[0].Endpoint == dead.Endpoint && qs[0].Capacity == 4 &&
			qs[0].Drops > 0 && qs[0].Drops == a.Dropped() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("per-peer drops never surfaced/converged; queues = %+v, dropped = %d", qs, a.Dropped())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestManyMessagesInOrderPerConnection(t *testing.T) {
	rx := newCollector()
	a, _ := netwire.Listen("127.0.0.1:0", nil)
	defer a.Close()
	b, _ := netwire.Listen("127.0.0.1:0", rx.deliver)
	defer b.Close()
	to := pastry.Addr{Endpoint: b.Addr()}
	const n = 200 // below the queue's 1024: none is dropped
	for i := 0; i < n; i++ {
		if err := a.Send(to, pastry.Message{Type: "test.typed", Payload: &typedPayload{Count: i}}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := rx.wait(t, n)
	for i, m := range msgs[:n] {
		if m.Payload.(*typedPayload).Count != i {
			t.Fatalf("message %d out of order: %+v", i, m.Payload)
		}
	}
}

// TestUnencodablePayloadIsDropped pins the fail-closed send: a payload
// whose AppendBinary fails cannot be encoded, so the writer drops and
// counts it instead of inventing a format, and the connection keeps
// carrying well-formed messages.
func TestUnencodablePayloadIsDropped(t *testing.T) {
	rx := newCollector()
	a, _ := netwire.Listen("127.0.0.1:0", nil)
	defer a.Close()
	b, _ := netwire.Listen("127.0.0.1:0", rx.deliver)
	defer b.Close()
	to := pastry.Addr{Endpoint: b.Addr()}
	if err := a.Send(to, pastry.Message{Type: "test.failing", Payload: &failingPayload{}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(to, pastry.Message{Type: "test.typed", Payload: &typedPayload{Text: "kept"}}); err != nil {
		t.Fatal(err)
	}
	got := rx.wait(t, 1)
	if len(got) != 1 || got[0].Payload.(*typedPayload).Text != "kept" {
		t.Fatalf("delivered %+v, want only the encodable message", got)
	}
	if a.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1 (the unencodable message)", a.Dropped())
	}
}

// TestNonBinaryHelloDropsConnection pins the fail-closed hello: a peer
// opening with the retired JSON codec's 'j' (or any byte but codec.ID)
// has its connection dropped before any frame is read, and the
// transport keeps serving well-formed peers.
func TestNonBinaryHelloDropsConnection(t *testing.T) {
	rx := newCollector()
	b, _ := netwire.Listen("127.0.0.1:0", rx.deliver)
	defer b.Close()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 'j', then what a JSON-codec frame would have looked like.
	if _, err := conn.Write([]byte("j\x00\x00\x00\x03\x01\x01{")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded; want the receiver to close the connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection with a 'j' hello was not dropped")
	}
	a, _ := netwire.Listen("127.0.0.1:0", nil)
	defer a.Close()
	if err := a.Send(pastry.Addr{Endpoint: b.Addr()}, pastry.Message{Type: "test.typed", Payload: &typedPayload{Count: 7}}); err != nil {
		t.Fatal(err)
	}
	if got := rx.wait(t, 1); len(got) != 1 || got[0].Payload.(*typedPayload).Count != 7 {
		t.Fatalf("delivered %+v after the dropped connection", got)
	}
}

// TestConcurrentSendersFrameIntegrity hammers one receiver from many
// goroutines sharing one transport and asserts every message decodes
// cleanly and arrives exactly once — the regression guard for the seed
// bug where two goroutines interleaved partial frames on one net.Conn.
func TestConcurrentSendersFrameIntegrity(t *testing.T) {
	rx := newCollector()
	rx.win = make(window, 512) // half the queue: the test asserts zero loss
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := netwire.Listen("127.0.0.1:0", rx.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const senders = 16
	const perSender = 250
	to := pastry.Addr{ID: ids.HashString("b"), Endpoint: b.Addr()}
	fill := make([]byte, 512) // push frames past trivial sizes
	for i := range fill {
		fill[i] = byte('a' + i%26)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if !rx.win.acquire(t) {
					return
				}
				msg := pastry.Message{
					Type:    "test.seq",
					From:    pastry.Addr{ID: ids.HashString(fmt.Sprintf("s%d", sender)), Endpoint: a.Addr()},
					Payload: &seqPayload{Sender: sender, Seq: i, Fill: string(fill)},
				}
				if err := a.Send(to, msg); err != nil {
					t.Errorf("sender %d: %v", sender, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	msgs := rx.wait(t, senders*perSender)
	if len(msgs) != senders*perSender {
		t.Fatalf("delivered %d messages, want %d", len(msgs), senders*perSender)
	}
	seen := make(map[[2]int]bool, len(msgs))
	perSenderNext := make([]int, senders)
	for _, m := range msgs {
		p, ok := m.Payload.(*seqPayload)
		if !ok {
			t.Fatalf("corrupt frame: payload %T", m.Payload)
		}
		if p.Fill != string(fill) {
			t.Fatalf("corrupt payload body from sender %d seq %d", p.Sender, p.Seq)
		}
		key := [2]int{p.Sender, p.Seq}
		if seen[key] {
			t.Fatalf("duplicate delivery: sender %d seq %d", p.Sender, p.Seq)
		}
		seen[key] = true
		// Per-sender order must hold even though senders interleave.
		if p.Seq < perSenderNext[p.Sender] {
			t.Fatalf("sender %d: seq %d arrived after %d", p.Sender, p.Seq, perSenderNext[p.Sender])
		}
		perSenderNext[p.Sender] = p.Seq + 1
	}
	if a.Dropped() != 0 {
		t.Fatalf("paced transport dropped %d messages", a.Dropped())
	}
}

// TestIdlePeerRetirementAndRevival covers the churn-leak guard: an idle
// writer retires (releasing its goroutine and connection) and a later
// Send to the same endpoint transparently revives the path.
func TestIdlePeerRetirementAndRevival(t *testing.T) {
	rx := newCollector()
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetIdleTimeout(50 * time.Millisecond)
	b, err := netwire.Listen("127.0.0.1:0", rx.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	to := pastry.Addr{Endpoint: b.Addr()}
	if err := a.Send(to, pastry.Message{Type: "test.typed", Payload: &typedPayload{Count: 1}}); err != nil {
		t.Fatal(err)
	}
	rx.wait(t, 1)
	// Let the writer retire, then send again through the revived peer.
	time.Sleep(250 * time.Millisecond)
	if err := a.Send(to, pastry.Message{Type: "test.typed", Payload: &typedPayload{Count: 2}}); err != nil {
		t.Fatal(err)
	}
	msgs := rx.wait(t, 2)
	if msgs[1].Payload.(*typedPayload).Count != 2 {
		t.Fatalf("post-retirement message corrupted: %+v", msgs[1].Payload)
	}
	if a.Dropped() != 0 {
		t.Fatalf("retirement dropped %d messages", a.Dropped())
	}
}

// TestRetirementRacesConcurrentSenders drives retire-and-revive as hard
// as it goes: an idle timeout short enough to fire between sends, a tiny
// queue, and several senders kept under its bound. A writer retires only
// with an empty queue and an enqueue never lands on a retired peer, so
// every message must arrive exactly once and nothing may deadlock.
func TestRetirementRacesConcurrentSenders(t *testing.T) {
	const queue = 8
	rx := newCollector()
	rx.win = make(window, queue)
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetQueueLen(queue)
	a.SetIdleTimeout(time.Millisecond)
	b, err := netwire.Listen("127.0.0.1:0", rx.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const senders = 4
	const perSender = 100
	to := pastry.Addr{Endpoint: b.Addr()}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if !rx.win.acquire(t) {
					return
				}
				if err := a.Send(to, pastry.Message{Type: "test.seq", Payload: &seqPayload{Sender: sender, Seq: i}}); err != nil {
					t.Errorf("sender %d: %v", sender, err)
					return
				}
				if i%10 == 0 {
					time.Sleep(3 * time.Millisecond) // give the idle timer chances to fire mid-burst
				}
			}
		}(s)
	}
	wg.Wait()
	msgs := rx.wait(t, senders*perSender)
	seen := make(map[[2]int]bool, len(msgs))
	for _, m := range msgs {
		p := m.Payload.(*seqPayload)
		key := [2]int{p.Sender, p.Seq}
		if seen[key] {
			t.Fatalf("duplicate delivery: sender %d seq %d", p.Sender, p.Seq)
		}
		seen[key] = true
	}
	if len(seen) != senders*perSender || a.Dropped() != 0 {
		t.Fatalf("delivered %d distinct messages of %d, dropped %d", len(seen), senders*perSender, a.Dropped())
	}
}

// TestCloseClosesInboundConnections guards the seed leak where accepted
// connections were never tracked: after Close, a connected sender must
// observe its connection dying.
func TestCloseClosesInboundConnections(t *testing.T) {
	rx := newCollector()
	b, err := netwire.Listen("127.0.0.1:0", rx.deliver)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'b'}); err != nil { // codec hello
		t.Fatal(err)
	}
	// Let the accept loop register the connection before closing.
	time.Sleep(50 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("inbound connection still open after transport Close")
	}
}

// TestPastryOverTCP runs a small overlay over real sockets: join, route,
// and verify delivery — the protocol-fidelity check for the deployment
// path.
func TestPastryOverTCP(t *testing.T) {
	const n = 6
	type peer struct {
		node *pastry.Node
		tr   *netwire.Transport
	}
	peers := make([]*peer, 0, n)
	defer func() {
		for _, p := range peers {
			p.tr.Close()
		}
	}()
	for i := 0; i < n; i++ {
		tr, err := netwire.Listen("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		addr := pastry.Addr{ID: ids.HashString(fmt.Sprintf("tcp-node-%d", i)), Endpoint: tr.Addr()}
		node := pastry.NewNode(addr, tr, clock.Real{})
		tr.OnDeliver(node.Deliver)
		peers = append(peers, &peer{node: node, tr: tr})
	}
	peers[0].node.Bootstrap()
	for i := 1; i < n; i++ {
		joined := make(chan bool, 1)
		peers[i].node.JoinWait(peers[0].node.Self(), time.Second, 5*time.Second, func(ok bool) { joined <- ok })
		if !<-joined {
			t.Fatalf("node %d never joined", i)
		}
	}
	// Let post-join state exchanges settle.
	time.Sleep(200 * time.Millisecond)

	key := ids.HashString("tcp-route-key")
	want := peers[0]
	for _, p := range peers[1:] {
		if p.node.Self().ID.Distance(key).Cmp(want.node.Self().ID.Distance(key)) < 0 {
			want = p
		}
	}
	done := make(chan pastry.Addr, n)
	for _, p := range peers {
		self := p.node.Self()
		pastry.Handle(p.node, "test.route", func(m pastry.Message, _ *pastry.NoPayload) { done <- self })
	}
	peers[n-1].node.Route(key, "test.route", nil)
	select {
	case root := <-done:
		if root.ID != want.node.Self().ID {
			t.Fatalf("routed to %v, want %v", root, want.node.Self())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("routed message never delivered over TCP")
	}

	// The transports meter traffic; a cluster that just ran a join
	// protocol must have moved bytes in both directions somewhere.
	var sent, recv uint64
	for _, p := range peers {
		s, r := p.tr.WireBytes()
		sent += s
		recv += r
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("wire byte counters dead: sent=%d recv=%d", sent, recv)
	}
}

// TestForwardedPayloadsSurviveFrameReuse pins the receive buffer's
// lifetime rule. A middle node's reader reuses one frame buffer while the
// messages it forwards — routed next hops and broadcasts pushed deeper —
// still sit in its writer's queue toward the final node. Every payload
// must reach the final node byte-identical to what was first sent.
func TestForwardedPayloadsSurviveFrameReuse(t *testing.T) {
	src, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	type hop struct {
		tr   *netwire.Transport
		node *pastry.Node
	}
	var mid, dst hop
	for i, h := range []*hop{&mid, &dst} {
		tr, err := netwire.Listen("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		addr := pastry.Addr{ID: ids.HashString(fmt.Sprintf("reuse-node-%d", i)), Endpoint: tr.Addr()}
		*h = hop{tr: tr, node: pastry.NewNode(addr, tr, clock.Real{})}
	}
	pastry.BuildStaticOverlay([]*pastry.Node{mid.node, dst.node})
	mid.tr.OnDeliver(mid.node.Deliver)

	// The final node records each payload's raw bytes as they arrive.
	// The source paces itself to half a queue of messages not yet at the
	// final node, so neither hop's queue fills and drops one.
	const n = 3000
	win := make(window, 512)
	var mu sync.Mutex
	got := map[int][]byte{}
	done := make(chan struct{})
	dst.tr.OnDeliver(func(m pastry.Message) {
		defer win.release()
		raw, _ := m.RawPayload()
		raw = bytes.Clone(raw)
		if err := materialize(&m); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		got[m.Payload.(*seqPayload).Seq] = raw
		if len(got) == n {
			close(done)
		}
	})

	// Alternate routed messages (keyed at the final node, so the middle
	// node forwards them) with broadcasts whose coverage makes the middle
	// node push them one row deeper, to the final node. Payload lengths
	// vary, so a forwarded copy still aliasing the middle node's frame
	// buffer would be overwritten by a later frame.
	row := ids.CommonPrefix(mid.node.Self().ID, dst.node.Self().ID)
	want := make(map[int][]byte, n)
	from := pastry.Addr{ID: ids.HashString("reuse-src"), Endpoint: src.Addr()}
	for i := 0; i < n; i++ {
		p := &seqPayload{Sender: i % 2, Seq: i, Fill: strings.Repeat(string(rune('a'+i%26)), 1+(i*37)%500)}
		want[i], _ = p.AppendBinary(nil)
		msg := pastry.Message{Type: "test.seq", From: from, Payload: p}
		if !win.acquire(t) {
			break
		}
		if i%2 == 0 {
			msg.Key = dst.node.Self().ID
		} else {
			msg.Cover = row + 1
		}
		if err := src.Send(mid.node.Self(), msg); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		received := len(got)
		mu.Unlock()
		t.Fatalf("final node got %d of %d payloads", received, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d reached the final node as %q, want %q", i, got[i], want[i])
		}
	}
}
