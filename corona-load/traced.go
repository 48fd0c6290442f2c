package main

import (
	"slices"
	"sync"
	"time"

	"corona"
	"corona/internal/diffengine"
)

// sampler polls instantaneous node state the counters do not keep: the
// deepest overlay send queue, and WAL growth across compactions.
type sampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	maxDepth int
	walBytes int64
}

func startSampler(c *cluster, every time.Duration) *sampler {
	s := &sampler{done: make(chan struct{})}
	gen := make([]uint64, len(c.nodes))
	size := make([]int64, len(c.nodes))
	for i, n := range c.nodes {
		st := n.Stats().Store
		gen[i], size[i] = st.Generation, st.WALBytes
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
			for i, n := range c.nodes {
				for _, q := range n.PeerQueues() {
					s.maxDepth = max(s.maxDepth, q.Depth)
				}
				st := n.Stats().Store
				if st.Generation == gen[i] {
					s.walBytes += max(st.WALBytes-size[i], 0)
				} else {
					s.walBytes += st.WALBytes // compacted: the new log is all growth
				}
				gen[i], size[i] = st.Generation, st.WALBytes
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// slice is one stretch of the traced window with tracing on or off.
type slice struct {
	on       bool
	cpu      time.Duration
	receipts uint64
}

// alternate switches span recording off and on each second from t0 to
// t1, metering process CPU and receipts per stretch, so the cost of
// tracing is measured on the same cluster in the same run.
func alternate(tr *tracer, t0, t1 time.Time) []slice {
	var out []slice
	for k := 0; ; k++ {
		from := t0.Add(time.Duration(k) * time.Second)
		if !from.Before(t1) {
			break
		}
		to := from.Add(time.Second)
		if to.After(t1) {
			to = t1
		}
		on := k%2 == 1
		tr.on.Store(on)
		cpu, rc := processCPU(), receipts.Load()
		time.Sleep(time.Until(to))
		out = append(out, slice{on: on, cpu: processCPU() - cpu, receipts: receipts.Load() - rc})
	}
	tr.on.Store(true)
	return out
}

// overhead is traced minus untraced CPU per receipt, as a share of the
// untraced figure.
func overhead(ss []slice) float64 {
	var cpu [2]time.Duration
	var rc [2]uint64
	for _, s := range ss {
		i := 0
		if s.on {
			i = 1
		}
		cpu[i] += s.cpu
		rc[i] += s.receipts
	}
	off := ratio(float64(cpu[0]), float64(rc[0]))
	return ratio(ratio(float64(cpu[1]), float64(rc[1]))-off, off)
}

// replay runs every pair of consecutive versions the origin first served
// inside the window back through the difference engine, timing detection
// (Extract, Compute, Encode) and application (Decode, Apply) per update,
// and checks each rebuild.
func replay(org *origin, t0, t1 time.Time, tr *tracer) (detect, apply, size []float64, bad int) {
	const maxPairs = 3000
	ex := diffengine.RSSProfile()
	for _, c := range org.chans {
		vs := c.servedIn(t0, t1)
		for i := 1; i < len(vs) && len(detect) < maxPairs; i++ {
			oldBody, _ := c.body(vs[i-1])
			newBody, _ := c.body(vs[i])
			old := ex.Extract(string(oldBody))
			start := time.Now()
			cur := ex.Extract(string(newBody))
			enc := diffengine.Encode(diffengine.Compute(old, cur, vs[i-1], vs[i]))
			mid := time.Now()
			dd, err := diffengine.Decode(enc)
			var got []string
			if err == nil {
				got, err = dd.Apply(old)
			}
			end := time.Now()
			tr.span("diffengine.detect", c.path, vs[i], start, mid)
			tr.span("diffengine.apply", c.path, vs[i], mid, end)
			if err != nil || !slices.Equal(got, cur) {
				bad++
			}
			detect = append(detect, us(mid.Sub(start)))
			apply = append(apply, us(end.Sub(mid)))
			size = append(size, float64(len(enc)))
		}
	}
	return detect, apply, size, bad
}

// edgeMs pairs each edge receipt of a window version with the receipt of
// the same version by the pinned in-process subscriber of that channel
// on the same entry node, returning the edge's extra latency.
func edgeMs(edge map[string]*sub, anchors []*sub, node int, window map[string]map[uint64]bool) []float64 {
	at := make(map[string]map[uint64]time.Time)
	for _, s := range anchors {
		if !s.pinned || s.node != node {
			continue
		}
		m := make(map[uint64]time.Time)
		s.mu.Lock()
		for _, r := range s.recs {
			if _, dup := m[r.ver]; !dup {
				m[r.ver] = r.at
			}
		}
		s.mu.Unlock()
		at[s.url] = m
	}
	var out []float64
	for u, s := range edge {
		s.mu.Lock()
		for _, r := range s.recs {
			if a, ok := at[u][r.ver]; ok && window[s.path][r.ver] {
				out = append(out, ms(r.at.Sub(a)))
			}
		}
		s.mu.Unlock()
	}
	return out
}

// layers computes the per-layer metrics of a traced run. Every ratio's
// base is named beside it; "per update" means per version the origin
// published inside the window.
func layers(out *output, d *deployment, org *origin, tr *tracer, before, after snapshot, smp *sampler, ss []slice, tf *traffic, versions int, t0, t1 time.Time) {
	secs := t1.Sub(t0).Seconds()
	perUpdate := func(x float64) float64 { return ratio(x, float64(versions)) }

	// webserver: the benchmark's origin.
	var wait []float64
	inWindow := make(map[string]map[uint64]bool)
	for p, c := range org.chans {
		inWindow[p] = make(map[uint64]bool)
		for _, v := range c.servedIn(t0, t1) {
			first, _ := c.firstServed(v)
			wait = append(wait, ms(first.Sub(c.UpdateTime(v))))
			inWindow[p][v] = true
		}
	}
	polls := float64(after.ok + after.notMod - before.ok - before.notMod)
	serve := append(tr.durations("origin.200"), tr.durations("origin.304")...)
	for i := range serve {
		serve[i] /= 1e3
	}
	out.set("webserver.poll_wait_ms_p50", summarize(wait).P50, "ms")
	out.set("webserver.not_modified_frac", ratio(float64(after.notMod-before.notMod), polls), "ratio")
	out.set("webserver.serve_us_p50", summarize(serve).P50, "us")

	// core.
	out.set("core.polls_per_update", perUpdate(delta(before, after, func(s corona.LiveStats) uint64 { return s.PollsIssued })), "count")
	out.set("core.detects_per_update", perUpdate(delta(before, after, func(s corona.LiveStats) uint64 { return s.UpdatesDetected })), "count")
	out.set("core.owner_send_ms_p50", stageMs(before, after, "owner_send", 0.5), "ms")
	out.set("core.batches_per_update", perUpdate(delta(before, after, func(s corona.LiveStats) uint64 { return s.NotifyBatchesSent })), "count")
	out.set("core.delegate_updates_per_update", perUpdate(delta(before, after, func(s corona.LiveStats) uint64 { return s.DelegateUpdates })), "count")
	out.set("core.subs_confirmed_per_s", ratio(float64(d.nsubs), d.owned.Sub(d.firstSub).Seconds()), "1/s")

	// diffengine, replayed after the window.
	detect, apply, size, bad := replay(org, t0, t1, tr)
	out.set("diffengine.detect_us_p50", summarize(detect).P50, "us")
	out.set("diffengine.apply_us_p50", summarize(apply).P50, "us")
	out.set("diffengine.diff_bytes_p50", summarize(size).P50, "bytes")
	if bad > 0 {
		out.verdict.Failed += bad
		out.verdict.Correct = false
	}

	// pastry and netwire.
	var wire, dropped float64
	for i := range after.nodes {
		wire += after.nodes[i].wireOut - before.nodes[i].wireOut
		dropped += float64(after.nodes[i].dropped - before.nodes[i].dropped)
	}
	out.set("pastry.entry_recv_ms_p50", stageMs(before, after, "entry_recv", 0.5), "ms")
	out.set("netwire.kb_per_update", perUpdate(wire/1024), "KB")
	out.set("netwire.queue_depth_max", float64(smp.maxDepth), "count")
	out.set("netwire.dropped", dropped, "count")

	// store: the three nodes' WALs, pooled; busy is per node on average.
	commitP50, commits, busy := commitMs(before, after)
	out.set("store.commits_per_s", float64(commits)/secs, "1/s")
	out.set("store.commit_ms_p50", commitP50, "ms")
	out.set("store.commit_busy_frac", busy.Seconds()/(secs*float64(len(d.c.nodes))), "ratio")
	out.set("store.wal_kb_per_s", float64(smp.walBytes)/1024/secs, "KB/s")

	// im: the node gateways.
	batches := delta(before, after, func(s corona.LiveStats) uint64 { return s.NotifyBatchesRecv })
	out.set("im.clients_per_batch", ratio(delta(before, after, func(s corona.LiveStats) uint64 { return s.BatchClients }), batches), "count")
	out.set("im.undeliverable", delta(before, after, func(s corona.LiveStats) uint64 { return s.Undeliverable }), "count")

	// clientproto/client and webgateway: the edges (churn only; 0 elsewhere).
	var sdkEdge, wsEdge []float64
	var sdkDropped float64
	if d.e != nil {
		sdkEdge = edgeMs(d.e.sdkSub, d.subs, sdkNode, inWindow)
		wsEdge = edgeMs(d.e.wsSub, d.subs, wsNode, inWindow)
		sdkDropped = float64(d.e.sdk.NotificationsDropped())
	}
	out.set("clientproto.client_enqueue_ms_p50", stageMs(before, after, "client_enqueue", 0.5), "ms")
	out.set("clientproto.notify_dropped", delta(before, after, func(s corona.LiveStats) uint64 { return s.NotifyDropped }), "count")
	out.set("client.edge_ms_p50", summarize(sdkEdge).P50, "ms")
	out.set("client.notifications_dropped", sdkDropped, "count")
	out.set("client.sub_rtt_p50_ms", summarize(tf.sdkRTT).P50, "ms")
	out.set("webgateway.web_enqueue_ms_p50", stageMs(before, after, "web_enqueue", 0.5), "ms")
	out.set("webgateway.edge_ms_p50", summarize(wsEdge).P50, "ms")
	out.set("webgateway.notify_dropped", delta(before, after, func(s corona.LiveStats) uint64 {
		return s.Web.DroppedSlowClient + s.Web.DroppedOversize
	}), "count")

	// runtime.
	out.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, (after.cpu-before.cpu).Seconds()), "ratio")
	out.set("runtime.gc_per_s", float64(after.numGC-before.numGC)/secs, "1/s")
	out.set("trace.overhead_frac", overhead(ss), "ratio")
}
