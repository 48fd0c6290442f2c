package core

import (
	"bytes"
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
			if err := owner.Subscribe("alice", url); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(2 * time.Minute)

			bodies := map[uint64][]byte{}
			poll := func() uint64 {
				t.Helper()
				res, err := fetcher.Fetch(url, 0)
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
			replica.handleReplicate(pastry.Message{From: owner.Self(), Payload: push})
			replica.mu.Lock()
			raised := replica.getChannel(url).lastVersion
			replica.mu.Unlock()
			if raised != v2 {
				t.Fatalf("replica lastVersion %d after the push, want %d", raised, v2)
			}
			if tc.lateUpdate {
				diff := diffengine.Encode(diffengine.Compute(core(v1), core(v2), v1, v2))
				replica.handleUpdate(pastry.Message{From: owner.Self(), Payload: &updateMsg{URL: url, Version: v2, Diff: diff}})
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

	n.handleUpdate(update)
	if got, ver := state(); ver != 2 || !slices.Equal(got, v2) || decodes != 1 {
		t.Fatalf("first delivery: content v%d %q after %d decodes, want v2 %q after 1", ver, got, decodes, v2)
	}
	n.handleUpdate(update)
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
	n.handleUpdate(pastry.Message{From: pastry.Addr{ID: ids.HashString("peer"), Endpoint: "sim://1"}, Payload: &updateMsg{
		URL: url, Version: 3, Diff: diffengine.Encode(diffengine.Compute(v2, v3, 2, 3)),
	}})
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
