package netwire_test

import (
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"corona/internal/netwire"
	"corona/internal/pastry"
)

// TestQueueBoundDropsOnlyTheExcess holds a peer's writer in dial backoff
// toward a port nobody listens on yet, with one message in hand, and
// sends past the queue bound. Exactly the messages beyond the bound must
// be dropped, and the kept ones must arrive in send order once the peer
// comes up.
func TestQueueBoundDropsOnlyTheExcess(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	endpoint := l.Addr().String()
	l.Close() // dials to endpoint are refused until the peer starts below

	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const bound, excess = 16, 5
	a.SetQueueLen(bound)
	// The first dial is refused at once; the sends and the peer's start
	// land well inside the backoff before the next one.
	a.SetBackoffBase(300 * time.Millisecond)
	a.SetDialAttempts(10)

	to := pastry.Addr{Endpoint: endpoint}
	send := func(i int) {
		t.Helper()
		if err := a.Send(to, pastry.Message{Type: "test.typed", Payload: &typedPayload{Count: i}}); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	// The writer takes message 0 as its batch and starts dialing.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if qs := a.PeerQueues(); len(qs) == 1 && qs[0].Depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer never took its batch: %+v", a.PeerQueues())
		}
	}
	for i := 1; i <= bound+excess; i++ {
		send(i)
	}
	if got := a.Dropped(); got != excess {
		t.Fatalf("Dropped = %d, want %d (the sends beyond the bound of %d)", got, excess, bound)
	}
	qs := a.PeerQueues()
	if len(qs) != 1 || qs[0].Depth != bound || qs[0].Capacity != bound || qs[0].Drops != excess {
		t.Fatalf("queues = %+v, want one peer at depth %d of %d with %d drops", qs, bound, bound, excess)
	}

	rx := newCollector()
	b, err := netwire.Listen(endpoint, rx.deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	msgs := rx.wait(t, 1+bound)
	for i, m := range msgs {
		if m.Payload.(*typedPayload).Count != i {
			t.Fatalf("message %d arrived as %+v; want send order", i, m.Payload)
		}
	}
	if len(msgs) != 1+bound || a.Dropped() != excess {
		t.Fatalf("delivered %d, dropped %d; want %d and %d", len(msgs), a.Dropped(), 1+bound, excess)
	}
}

// TestIdlePeerFootprint pins what an idle contact costs: once a
// transport has sent one small message to each of 32 loopback peers and
// they have delivered it, the sender and the receivers together hold
// under 16 KiB of heap per peer. Neither side keeps a queue or socket
// buffers sized for a burst that is not there.
func TestIdlePeerFootprint(t *testing.T) {
	const peers = 32
	var got atomic.Int64
	receivers := make([]*netwire.Transport, peers)
	for i := range receivers {
		r, err := netwire.Listen("127.0.0.1:0", func(pastry.Message) { got.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		receivers[i] = r
	}
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	before := liveHeap()
	for i, r := range receivers {
		if err := a.Send(pastry.Addr{Endpoint: r.Addr()}, pastry.Message{Type: "test.typed", Payload: &typedPayload{Count: i}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < peers {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages", got.Load(), peers)
		}
		time.Sleep(time.Millisecond)
	}
	perPeer := (liveHeap() - before) / peers
	t.Logf("%d B of heap per idle peer", perPeer)
	if perPeer >= 16<<10 {
		t.Fatalf("idle peers hold %d B of heap each, want under 16 KiB", perPeer)
	}
	runtime.KeepAlive(receivers)
}

// liveHeap returns the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// flakyListener fails its first Accept as a listener out of file
// descriptors does, then accepts normally.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptRetriesTransientError checks that one failed Accept does not
// stop a transport from taking inbound connections.
func TestAcceptRetriesTransientError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rx := newCollector()
	b := netwire.ListenOn(&flakyListener{Listener: l}, rx.deliver)
	defer b.Close()
	a, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(pastry.Addr{Endpoint: b.Addr()}, pastry.Message{Type: "test.typed", Payload: &typedPayload{Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := rx.wait(t, 1); got[0].Payload.(*typedPayload).Count != 1 {
		t.Fatalf("delivered %+v", got[0].Payload)
	}
}
