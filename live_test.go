package corona

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"corona/internal/feed"
	"corona/internal/webserver"
)

// startTestOrigin serves one generator-backed feed over real HTTP.
func startTestOrigin(t *testing.T, updateEvery time.Duration) (feedURL string, stop func()) {
	t.Helper()
	origin := webserver.NewOrigin()
	const path = "/feed/live.xml"
	origin.Host(webserver.ChannelConfig{
		URL:       path,
		Process:   webserver.PeriodicProcess{Origin: time.Now(), Interval: updateEvery},
		Generator: feed.NewGenerator(path, 11),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: webserver.NewHTTPOrigin(origin, time.Now)}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String() + path, func() { srv.Close() }
}

func TestLiveNodeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	feedURL, stopOrigin := startTestOrigin(t, 500*time.Millisecond)
	defer stopOrigin()

	// A three-node ring over TCP loopback.
	var nodes []*LiveNode
	var seeds []string
	for i := 0; i < 3; i++ {
		n, err := StartLiveNode(LiveConfig{
			Bind:          "127.0.0.1:0",
			Seeds:         seeds,
			PollInterval:  300 * time.Millisecond,
			NodeCountHint: 3,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		seeds = []string{n.Addr()}
		time.Sleep(100 * time.Millisecond)
	}

	// Subscribe through node 0's IM line protocol.
	got := dialIM(t, nodes[0], "LOGIN alice", "SUBSCRIBE "+feedURL)

	deadline := time.After(20 * time.Second)
	sawAck, sawUpdate := false, false
	for !sawAck || !sawUpdate {
		select {
		case line := <-got:
			switch body := imUpdate(line); {
			case strings.HasPrefix(line, "OK subscribed"):
				sawAck = true
			case strings.HasPrefix(body, "UPDATE"):
				sawUpdate = true
				if !strings.Contains(body, "CORONA-DIFF") {
					t.Fatalf("update without encoded diff: %.120s", body)
				}
			case strings.HasPrefix(line, "ERR"):
				t.Fatalf("line protocol error: %s", line)
			}
		case <-deadline:
			t.Fatalf("timed out (ack=%v update=%v)", sawAck, sawUpdate)
		}
	}

	// At least one node polled the origin over real HTTP.
	var polls uint64
	for _, n := range nodes {
		polls += n.Stats().PollsIssued
	}
	if polls == 0 {
		t.Fatal("no HTTP polls issued")
	}
}

// reservePorts grabs n distinct loopback ports and releases them, so a
// test can restart a node on the same address (the node identifier is
// derived from the advertised address, so a restarted node must rebind
// its old port to keep its ring position).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// dialIM serves the line protocol on node, connects a client, sends
// commands, and streams the server's lines until the test ends.
func dialIM(t *testing.T, node *LiveNode, commands ...string) <-chan string {
	t.Helper()
	addr, err := node.ServeIM("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		close(done)
		conn.Close()
	})
	for _, c := range commands {
		if _, err := fmt.Fprintln(conn, c); err != nil {
			t.Fatal(err)
		}
	}
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(conn)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	return lines
}

// imUpdate returns the unquoted body of a line-protocol MSG line, empty
// for any other line.
func imUpdate(line string) string {
	quoted, ok := strings.CutPrefix(line, "MSG corona ")
	if !ok {
		return ""
	}
	body, _ := strconv.Unquote(quoted)
	return body
}

// loginAndWaitUpdate logs handle in over node's line protocol and waits
// for one UPDATE notification, returning false on deadline.
func loginAndWaitUpdate(t *testing.T, node *LiveNode, handle string, timeout time.Duration) bool {
	t.Helper()
	got := dialIM(t, node, "LOGIN "+handle)
	deadline := time.After(timeout)
	for {
		select {
		case line := <-got:
			if strings.HasPrefix(imUpdate(line), "UPDATE") {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// TestLiveNodeRestartRecovery is the durability acceptance scenario: a
// live node holding subscriptions is hard-killed (no flush beyond what
// the group-commit window already made durable), restarted from its
// DataDir on the same address, rejoins the ring, and the durable
// subscription delivers the next update with no client re-subscription.
func TestLiveNodeRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	feedURL, stopOrigin := startTestOrigin(t, 500*time.Millisecond)
	defer stopOrigin()

	addrs := reservePorts(t, 3)
	dataDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	start := func(i int, seeds []string) *LiveNode {
		n, err := StartLiveNode(LiveConfig{
			Bind:          addrs[i],
			Seeds:         seeds,
			PollInterval:  300 * time.Millisecond,
			NodeCountHint: 3,
			DataDir:       dataDirs[i],
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		return n
	}
	nodes := make([]*LiveNode, 3)
	for i := range nodes {
		var seeds []string
		if i > 0 {
			seeds = []string{nodes[0].Addr()}
		}
		nodes[i] = start(i, seeds)
		time.Sleep(100 * time.Millisecond)
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}()

	// Subscribe alice through node 0 and wait for the flow to be live.
	got := dialIM(t, nodes[0], "LOGIN alice", "SUBSCRIBE "+feedURL)
	deadline := time.After(20 * time.Second)
	for sawUpdate := false; !sawUpdate; {
		select {
		case line := <-got:
			if strings.HasPrefix(imUpdate(line), "UPDATE") {
				sawUpdate = true
			}
			if strings.HasPrefix(line, "ERR") {
				t.Fatalf("line protocol error: %s", line)
			}
		case <-deadline:
			t.Fatal("subscription never delivered before the kill")
		}
	}

	// Find the channel's owner and give the group-commit window (2ms
	// default, against a far older subscription) no benefit of the doubt.
	ownerIdx := -1
	for i, n := range nodes {
		if info, ok := n.Channel(feedURL); ok && info.Owner {
			ownerIdx = i
			break
		}
	}
	if ownerIdx < 0 {
		t.Fatal("no node owns the channel")
	}
	time.Sleep(100 * time.Millisecond)

	// Hard-kill the owner: transport dies, store is abandoned unflushed.
	nodes[ownerIdx].Kill()

	// Wait for an interim owner: a surviving replica detects the fault
	// (sends to the dead node fail) and promotes itself. This is the
	// dual-owner setup the owner-epoch handshake must resolve.
	interimIdx := -1
	interimDeadline := time.Now().Add(20 * time.Second)
	for interimIdx < 0 && time.Now().Before(interimDeadline) {
		for i, n := range nodes {
			if i == ownerIdx {
				continue
			}
			if info, ok := n.Channel(feedURL); ok && info.Owner {
				interimIdx = i
				break
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	if interimIdx < 0 {
		t.Fatal("no interim owner promoted after the kill")
	}

	// Restart the old owner from its data directory on the same address,
	// joining through a surviving node — while the interim owner still
	// flies its isOwner flag.
	seedIdx := (ownerIdx + 1) % 3
	restarted := start(ownerIdx, []string{nodes[seedIdx].Addr()})
	nodes[ownerIdx] = restarted

	info, ok := restarted.Channel(feedURL)
	if !ok {
		t.Fatal("restarted node recovered no channel state")
	}
	if !info.Owner || info.Subscribers != 1 {
		t.Fatalf("restarted node state = %+v, want recovered ownership with 1 subscriber", info)
	}

	// The owner-epoch handshake must leave exactly one isOwner node
	// within a maintain pass: the restarted root's replication push
	// (recoveredEpoch+1) demotes the interim on receipt.
	owners := func() (count int, restartedOwns bool) {
		for i, n := range nodes {
			if info, ok := n.Channel(feedURL); ok && info.Owner {
				count++
				if i == ownerIdx {
					restartedOwns = true
				}
			}
		}
		return
	}
	mergeDeadline := time.Now().Add(15 * time.Second)
	for {
		count, restartedOwns := owners()
		if count == 1 && restartedOwns {
			break
		}
		if time.Now().After(mergeDeadline) {
			t.Fatalf("epoch handshake never converged: %d owners (restarted owns: %v)", count, restartedOwns)
		}
		time.Sleep(25 * time.Millisecond)
	}
	// And it stays converged across further maintain passes.
	time.Sleep(time.Second)
	if count, restartedOwns := owners(); count != 1 || !restartedOwns {
		t.Fatalf("ownership diverged again: %d owners (restarted owns: %v)", count, restartedOwns)
	}

	// No one re-subscribes. If the owner was also alice's entry node the
	// line session died with the process, so log in again (a reconnect,
	// not a subscription); otherwise the original login keeps listening.
	if ownerIdx == 0 {
		if !loginAndWaitUpdate(t, restarted, "alice", 30*time.Second) {
			t.Fatal("no update delivered after restart")
		}
		return
	}
	deadline = time.After(30 * time.Second)
	for {
		select {
		case line := <-got:
			if strings.HasPrefix(imUpdate(line), "UPDATE") {
				return // durable subscription survived the restart
			}
		case <-deadline:
			t.Fatal("no update delivered after restart")
		}
	}
}

func TestLiveNodeValidation(t *testing.T) {
	if _, err := StartLiveNode(LiveConfig{}); err == nil {
		t.Fatal("empty bind accepted")
	}
	if _, err := StartLiveNode(LiveConfig{Bind: "127.0.0.1:0", Seeds: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("unreachable seed accepted")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	// Two simulations with identical options must produce identical
	// notification sequences and identical stats.
	run := func() ([]Notification, Stats) {
		sim, err := NewSimulation(Options{Nodes: 16, PollInterval: 5 * time.Minute, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		const url = "http://det.example.com/f.xml"
		sim.HostFeed(url, 12*time.Minute)
		var got []Notification
		sim.Subscribe("alice", url, func(n Notification) { got = append(got, n) })
		sim.RunFor(4 * time.Hour)
		return got, sim.Stats()
	}
	a, sa := run()
	b, sb := run()
	if len(a) != len(b) {
		t.Fatalf("notification counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Version != b[i].Version || !a[i].At.Equal(b[i].At) || a[i].Diff != b[i].Diff {
			t.Fatalf("notification %d differs between identical runs", i)
		}
	}
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
}
