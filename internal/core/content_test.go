package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"corona/internal/diffengine"
	"corona/internal/eventsim"
	"corona/internal/feed"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

// diffRecorder keeps the diff each channel version was delivered with.
type diffRecorder struct {
	mu    sync.Mutex
	diffs map[uint64]string
}

func (r *diffRecorder) NotifyBatch(_ []string, _ string, version uint64, diff string, _ time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.diffs[version] = diff
}

func (r *diffRecorder) diff(version uint64) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.diffs[version]
	return d, ok
}

// TestDetectedDiffAfterReplicatePush pins the base a detected diff
// names. A replica's version is raised by the owner's replicate push
// before (or without) the update that carries the content; its next own
// poll must still emit a diff that, applied to the core content of the
// version it names as its base, rebuilds the origin's content.
func TestDetectedDiffAfterReplicatePush(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lateUpdate bool // the v2 update arrives after the push
		wantBase   uint64
	}{
		{"update lost", false, 1},
		{"update late", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const url = "http://feeds.example.net/content.xml"
			sim := eventsim.New(1)
			net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
			origin := webserver.NewOrigin()
			origin.Host(webserver.ChannelConfig{
				URL:       url,
				Process:   webserver.PeriodicProcess{Origin: eventsim.Epoch.Add(time.Minute), Interval: time.Hour},
				Generator: feed.NewGenerator(url, 5),
			})
			fetcher := &OriginFetcher{Origin: origin, Clock: sim}
			rec := &diffRecorder{diffs: make(map[uint64]string)}

			overlays := net.Ring(2, sim.RNG("ids"))
			var owner, replica *Node
			for i, overlay := range overlays {
				cfg := DefaultConfig()
				cfg.NodeCount = len(overlays)
				cfg.PollInterval = 1000 * time.Hour // the test drives every poll
				cfg.Seed = int64(i)
				n := NewNode(cfg, overlay, sim, fetcher, rec, nil)
				n.Start()
				if overlay.IsRoot(ids.HashString(url)) {
					owner = n
				} else {
					replica = n
				}
			}
			owner.Subscribe("alice", url)
			sim.RunFor(2 * time.Minute)

			bodies := map[uint64][]byte{}
			poll := func() uint64 {
				t.Helper()
				res, err := fetcher.Fetch(url, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				bodies[res.Version] = res.Body
				return res.Version
			}
			detect := func(v uint64) {
				replica.updateDetected(replica.channel(url), fetchedUpdate{Version: v, Bytes: len(bodies[v]), Body: bytes.Clone(bodies[v])})
				sim.RunFor(time.Second)
			}
			core := func(v uint64) []string { return diffengine.RSSProfile().Extract(string(bodies[v])) }

			v1 := poll()
			detect(v1)
			sim.RunFor(time.Hour)
			v2 := poll()

			// The owner learned v2 (from a poll of its own, say) and
			// pushes its state; the replica now knows v2 but not its
			// content.
			owner.mu.Lock()
			och := owner.getChannel(url)
			och.lastVersion = v2
			push := owner.buildReplicateLocked(och)
			owner.mu.Unlock()
			replica.handleReplicate(pastry.Message{From: owner.Self(), Payload: push}, push)
			replica.mu.Lock()
			raised := replica.getChannel(url).lastVersion
			replica.mu.Unlock()
			if raised != v2 {
				t.Fatalf("replica lastVersion %d after the push, want %d", raised, v2)
			}
			if tc.lateUpdate {
				diff := diffengine.Encode(diffengine.Compute(core(v1), core(v2), v1, v2))
				u := &updateMsg{URL: url, Version: v2, Diff: diff}
				replica.handleUpdate(pastry.Message{From: owner.Self(), Payload: u}, u)
			}

			sim.RunFor(time.Hour)
			v3 := poll()
			detect(v3)
			enc, ok := rec.diff(v3)
			if !ok {
				t.Fatalf("owner delivered no diff for v%d", v3)
			}
			d, err := diffengine.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if d.OldVersion != tc.wantBase || d.NewVersion != v3 {
				t.Fatalf("diff labelled v%d -> v%d, want v%d -> v%d", d.OldVersion, d.NewVersion, tc.wantBase, v3)
			}
			got, err := d.Apply(core(d.OldVersion))
			if err != nil {
				t.Fatalf("diff does not apply to its base v%d: %v", d.OldVersion, err)
			}
			if !slices.Equal(got, core(v3)) {
				t.Fatalf("diff applied to v%d does not rebuild v%d", d.OldVersion, v3)
			}
		})
	}
}

// channel returns the node's state for url under the node lock.
func (n *Node) channel(url string) *channelState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.getChannel(url)
}

// TestDuplicateUpdateSkipsDiffDecode delivers the same update twice, as
// the wedge does (two broadcast copies, or a broadcast copy and the
// owner's routed backstop). The first delivery patches the cached
// content; the second leaves it as it is and never decodes the diff.
func TestDuplicateUpdateSkipsDiffDecode(t *testing.T) {
	const url = "http://feeds.example.net/dup.xml"
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	overlay := net.Node(pastry.Addr{ID: ids.HashString("dup"), Endpoint: "sim://0"})
	overlay.Bootstrap()
	cfg := DefaultConfig()
	n := NewNode(cfg, overlay, sim, &OriginFetcher{Origin: webserver.NewOrigin(), Clock: sim}, &diffRecorder{diffs: make(map[uint64]string)}, nil)

	decodes := 0
	t.Cleanup(func() { decodeDiff = diffengine.Decode })
	decodeDiff = func(s string) (*diffengine.Diff, error) {
		decodes++
		return diffengine.Decode(s)
	}

	v1, v2 := []string{"<item>a</item>"}, []string{"<item>a</item>", "<item>b</item>"}
	ch := n.channel(url)
	n.mu.Lock()
	ch.content, ch.contentVersion, ch.lastVersion = v1, 1, 1
	n.mu.Unlock()
	update := pastry.Message{From: pastry.Addr{ID: ids.HashString("peer"), Endpoint: "sim://1"}, Payload: &updateMsg{
		URL: url, Version: 2, Diff: diffengine.Encode(diffengine.Compute(v1, v2, 1, 2)),
	}}
	state := func() ([]string, uint64) {
		n.mu.Lock()
		defer n.mu.Unlock()
		return slices.Clone(ch.content), ch.contentVersion
	}

	n.handleUpdate(update, update.Payload.(*updateMsg))
	if got, ver := state(); ver != 2 || !slices.Equal(got, v2) || decodes != 1 {
		t.Fatalf("first delivery: content v%d %q after %d decodes, want v2 %q after 1", ver, got, decodes, v2)
	}
	n.handleUpdate(update, update.Payload.(*updateMsg))
	if got, ver := state(); ver != 2 || !slices.Equal(got, v2) {
		t.Fatalf("second delivery moved the content to v%d %q", ver, got)
	}
	if decodes != 1 {
		t.Fatalf("second delivery decoded the diff (%d decodes in all)", decodes)
	}
	if got := n.Stats().DiffBaseMismatches; got != 0 {
		t.Fatalf("a duplicate delivery counted %d base mismatches, want 0", got)
	}
}

// TestMismatchedBaseSkipsDiffDecode delivers an update whose diff starts
// from a version this node does not cache: the header alone rules it
// out, so the diff is never decoded and the cache stays as it is, and
// the node counts the mismatch.
func TestMismatchedBaseSkipsDiffDecode(t *testing.T) {
	const url = "http://feeds.example.net/behind.xml"
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	overlay := net.Node(pastry.Addr{ID: ids.HashString("behind"), Endpoint: "sim://0"})
	overlay.Bootstrap()
	cfg := DefaultConfig()
	n := NewNode(cfg, overlay, sim, &OriginFetcher{Origin: webserver.NewOrigin(), Clock: sim}, &diffRecorder{diffs: make(map[uint64]string)}, nil)

	decodes := 0
	t.Cleanup(func() { decodeDiff = diffengine.Decode })
	decodeDiff = func(s string) (*diffengine.Diff, error) {
		decodes++
		return diffengine.Decode(s)
	}

	v1 := []string{"<item>a</item>"}
	v2, v3 := append(slices.Clone(v1), "<item>b</item>"), append(slices.Clone(v1), "<item>b</item>", "<item>c</item>")
	ch := n.channel(url)
	n.mu.Lock()
	ch.content, ch.contentVersion, ch.lastVersion = v1, 1, 1
	n.mu.Unlock()
	u := &updateMsg{URL: url, Version: 3, Diff: diffengine.Encode(diffengine.Compute(v2, v3, 2, 3))}
	n.handleUpdate(pastry.Message{From: pastry.Addr{ID: ids.HashString("peer"), Endpoint: "sim://1"}, Payload: u}, u)
	n.mu.Lock()
	got, ver := slices.Clone(ch.content), ch.contentVersion
	n.mu.Unlock()
	if ver != 1 || !slices.Equal(got, v1) {
		t.Fatalf("a diff from v2 moved v1 content to v%d %q", ver, got)
	}
	if decodes != 0 {
		t.Fatalf("a diff from a base this node lacks was decoded %d times, want 0", decodes)
	}
	if got := n.Stats().DiffBaseMismatches; got != 1 {
		t.Fatalf("a diff from a base this node lacks counted %d base mismatches, want 1", got)
	}
}

// TestWholeDocumentDiffMovesEveryMember has a wedge member that holds
// no content detect a version first: the update it disseminates carries
// a diff from version 0, the whole document. Members holding an older
// version must apply it to empty content, so every member's content
// moves to the detected version and no base mismatch is counted.
func TestWholeDocumentDiffMovesEveryMember(t *testing.T) {
	const url = "http://feeds.example.net/whole.xml"
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	origin := webserver.NewOrigin()
	origin.Host(webserver.ChannelConfig{
		URL:       url,
		Process:   webserver.PeriodicProcess{Origin: eventsim.Epoch.Add(time.Minute), Interval: time.Hour},
		Generator: feed.NewGenerator(url, 5),
	})
	fetcher := &OriginFetcher{Origin: origin, Clock: sim}
	overlays := net.Ring(3, sim.RNG("ids"))
	nodes := make([]*Node, len(overlays))
	var owner, detector *Node
	for i, overlay := range overlays {
		cfg := DefaultConfig()
		cfg.NodeCount = len(overlays)
		cfg.PollInterval = 1000 * time.Hour // the test drives every detection
		cfg.MaintenanceInterval = 20 * time.Minute
		cfg.Seed = int64(i)
		nodes[i] = NewNode(cfg, overlay, sim, fetcher, &diffRecorder{diffs: make(map[uint64]string)}, nil)
		nodes[i].Start()
		if overlay.IsRoot(ids.HashString(url)) {
			owner = nodes[i]
		} else {
			detector = nodes[i]
		}
	}
	for i := 0; i < 10; i++ {
		nodes[i%len(nodes)].Subscribe(fmt.Sprintf("s%d", i), url)
	}
	sim.RunFor(time.Hour)
	detect := func(n *Node) uint64 {
		t.Helper()
		res, err := fetcher.Fetch(url, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		n.updateDetected(n.channel(url), fetchedUpdate{Version: res.Version, Bytes: len(res.Body), Body: res.Body})
		sim.RunFor(time.Second)
		return res.Version
	}
	contentVersions := func() []uint64 {
		var vs []uint64
		for _, n := range nodes {
			info, _ := n.Channel(url)
			vs = append(vs, info.ContentVersion)
		}
		return vs
	}

	// The owner detects v1; the update is lost on every link into the
	// detector, which is left holding no content.
	for _, n := range nodes {
		if n != detector {
			net.SetLinkFault(n.Self().Endpoint, detector.Self().Endpoint, simnet.LinkFault{DropRate: 1})
		}
	}
	v1 := detect(owner)
	net.ClearLinkFaults()
	if info, _ := detector.Channel(url); info.ContentVersion != 0 {
		t.Fatalf("detector holds content v%d, want none", info.ContentVersion)
	}
	if info, _ := owner.Channel(url); info.ContentVersion != v1 {
		t.Fatalf("owner holds content v%d after detecting v%d", info.ContentVersion, v1)
	}

	sim.RunFor(time.Hour)
	v2 := detect(detector)
	for i, v := range contentVersions() {
		if v != v2 {
			t.Fatalf("after the contentless detector's v%d: content versions %v, want every member at v%d (node %d)", v2, contentVersions(), v2, i)
		}
	}
	for i, n := range nodes {
		if got := n.Stats().DiffBaseMismatches; got != 0 {
			t.Fatalf("node %d counted %d base mismatches, want 0", i, got)
		}
	}
	want := diffengine.RSSProfile().Extract(string(mustBody(t, fetcher, url)))
	for i, n := range nodes {
		ch := n.channel(url)
		n.mu.Lock()
		got := slices.Clone(ch.content)
		n.mu.Unlock()
		if !slices.Equal(got, want) {
			t.Fatalf("node %d content differs from the origin's v%d", i, v2)
		}
	}
}

// mustBody fetches the origin's current body of url.
func mustBody(t *testing.T, f Fetcher, url string) []byte {
	t.Helper()
	res, err := f.Fetch(url, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Body
}

// downFetcher fails every poll while down is set, as an origin that
// times out for one node does.
type downFetcher struct {
	Fetcher
	down *bool
}

func (f downFetcher) Fetch(url string, have, content uint64) (webserver.FetchResult, error) {
	if *f.down {
		return webserver.FetchResult{}, errors.New("origin unreachable")
	}
	return f.Fetcher.Fetch(url, have, content)
}

// TestTrailingContentCatchesUpOnNextPoll drives a three-node wedge over
// a generator-backed channel. Start-up alone can leave a member's
// content behind its version, so first every member must hold the
// owner's content a poll interval after the third version. Then one
// member misses a version: its poll of the origin fails and the update
// carrying the content is lost on its way, and the owner's replicate
// push raises the member's version before it holds the content. Within
// one poll interval every member's content must be the owner's again,
// and the next version's diff, one version wide, must apply everywhere:
// no base mismatch.
func TestTrailingContentCatchesUpOnNextPoll(t *testing.T) {
	const (
		url   = "http://feeds.example.net/catchup.xml"
		tau   = 10 * time.Minute
		every = time.Hour
	)
	sim := eventsim.New(3)
	net := simnet.New(sim, simnet.FixedLatency(10*time.Millisecond))
	origin := webserver.NewOrigin()
	first := eventsim.Epoch.Add(time.Minute)
	origin.Host(webserver.ChannelConfig{
		URL:       url,
		Process:   webserver.PeriodicProcess{Origin: first, Interval: every},
		Generator: feed.NewGenerator(url, 9),
	})
	overlays := net.Ring(3, sim.RNG("ids"))
	nodes := make([]*Node, len(overlays))
	down := make([]bool, len(overlays))
	for i, overlay := range overlays {
		cfg := DefaultConfig()
		cfg.NodeCount = len(overlays)
		cfg.PollInterval = tau
		cfg.MaintenanceInterval = 20 * time.Minute
		cfg.Seed = int64(i)
		fetcher := downFetcher{Fetcher: &OriginFetcher{Origin: origin, Clock: sim}, down: &down[i]}
		nodes[i] = NewNode(cfg, overlay, sim, fetcher, &diffRecorder{diffs: make(map[uint64]string)}, nil)
		nodes[i].Start()
	}
	var owner *Node
	member := -1
	for i, n := range nodes {
		if n.overlay.IsRoot(ids.HashString(url)) {
			owner = n
		} else {
			member = i
		}
	}
	for i := 0; i < 10; i++ {
		nodes[i%len(nodes)].Subscribe(fmt.Sprintf("s%d", i), url)
	}
	// publication returns the instant the origin publishes version v.
	publication := func(v int) time.Duration { return first.Add(time.Duration(v-1) * every).Sub(sim.Now()) }
	versions := func() (content []uint64, mismatches uint64) {
		for i, n := range nodes {
			info, ok := n.Channel(url)
			if !ok || !info.Polling {
				t.Fatalf("node %d does not poll the channel: %+v", i, info)
			}
			content = append(content, info.ContentVersion)
			mismatches += n.Stats().DiffBaseMismatches
		}
		return content, mismatches
	}
	converged := func(content []uint64, want uint64) bool {
		for _, v := range content {
			if v != want {
				return false
			}
		}
		return true
	}

	sim.RunFor(publication(3) + tau)
	if content, _ := versions(); !converged(content, 3) {
		t.Fatalf("after v3: content versions %v, want every member at v3", content)
	}

	// The member misses v4: its polls fail and the wedge's update is
	// lost on the links into it.
	m := nodes[member]
	sim.RunFor(publication(4) - time.Minute)
	down[member] = true
	for _, n := range nodes {
		if n != m {
			net.SetLinkFault(n.Self().Endpoint, m.Self().Endpoint, simnet.LinkFault{DropRate: 1})
		}
	}
	sim.RunFor(tau + 2*time.Minute)
	down[member] = false
	net.ClearLinkFaults()
	owner.mu.Lock()
	push := owner.buildReplicateLocked(owner.getChannel(url))
	owner.mu.Unlock()
	if push.LastVersion != 4 {
		t.Fatalf("owner at v%d after the publication, want v4", push.LastVersion)
	}
	m.handleReplicate(pastry.Message{From: owner.Self(), Payload: push}, push)
	if info, _ := m.Channel(url); info.LastVersion != 4 || info.ContentVersion != 3 {
		t.Fatalf("member at v%d with content v%d after the push, want v4 with content v3", info.LastVersion, info.ContentVersion)
	}

	sim.RunFor(tau)
	content, before := versions()
	if !converged(content, 4) {
		t.Fatalf("one poll interval after the push: content versions %v, want every member at the owner's v4", content)
	}
	sim.RunFor(publication(5) + tau)
	content, after := versions()
	if !converged(content, 5) {
		t.Fatalf("after v5: content versions %v, want every member at v5", content)
	}
	if after != before {
		t.Fatalf("base mismatches grew from %d to %d over v5", before, after)
	}
}
