package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"corona"
)

// Run phases. Every setup is timed; the window opens only after the last
// setup's readiness gate passes and a warm-up has let the timer-driven
// start (first polls, level settling, delegate recruitment) finish.
const (
	setups      = 5
	warmup      = 3 * time.Second
	drain       = 2 * time.Second
	settle      = 500 * time.Millisecond
	jitter      = 0.5
	horizon     = 10 * time.Minute
	gateTimeout = 120 * time.Second
)

// dataRoot holds the nodes' data directories, inside the checkout.
var dataRoot = filepath.Join(".bench_build", "run")

// deployment is one set-up cluster with everything subscribed to it.
type deployment struct {
	c     *cluster
	e     *edges
	subs  []*sub
	nsubs int
	// start, firstSub, owned and ready time the setup: first
	// StartLiveNode, first Subscribe, every subscription counted at its
	// owner, and the whole readiness gate passed.
	start, firstSub, owned, ready time.Time
}

func (d *deployment) close() {
	if d.e != nil {
		d.e.close()
	}
	d.c.close()
}

// setUp starts the cluster, subscribes the workload's population and
// waits for the readiness gate.
func setUp(w workload, a addrs, dir string, urls []string, paths map[string]string, seed int64, tr *tracer) (*deployment, error) {
	d := &deployment{start: time.Now()}
	want := make(map[string]int)
	c, err := startCluster(a, dir, seed)
	if err != nil {
		return nil, err
	}
	d.c = c
	d.firstSub = time.Now()
	// Subscribe round-robin across channels, so the whole-set replicate
	// pushes two subscribes of one channel trigger are not back to back.
	for k := 0; k < w.subsPerChan; k++ {
		for ci, u := range urls {
			s := &sub{name: fmt.Sprintf("c%d-%d", ci, k), url: u, path: paths[u], node: (ci + k) % clusterSize}
			if ci < w.edgeChannels && k < clusterSize && (s.node == sdkNode || s.node == wsNode) {
				s.pinned = true
			}
			if err := subscribe(c, s, tr); err != nil {
				d.close()
				return nil, err
			}
			d.subs = append(d.subs, s)
			want[u]++
		}
	}
	if w.edgeChannels > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		e, err := openEdges(ctx, a, urls[:w.edgeChannels], paths, tr)
		cancel()
		if err != nil {
			d.close()
			return nil, err
		}
		d.e = e
		for _, u := range urls[:w.edgeChannels] {
			want[u] += 2
		}
	}
	for _, n := range want {
		d.nsubs += n
	}
	if d.owned, d.ready, err = c.waitReady(want, gateTimeout); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// subscribe attaches an in-process deliverer for s on its entry node and
// subscribes it.
func subscribe(c *cluster, s *sub, tr *tracer) error {
	n := c.nodes[s.node]
	n.Attach(s.name, func(nt corona.Notification) {
		now := time.Now()
		s.record(nt.Version, now, nt.Diff)
		tr.span("recv.inproc", s.path, nt.Version, now, now)
	})
	start := time.Now()
	s.mu.Lock()
	s.from = start
	s.mu.Unlock()
	err := n.Subscribe(s.name, s.url)
	tr.span("subscribe", s.path, 0, start, time.Now())
	if err != nil {
		return fmt.Errorf("subscribing %s to %s: %w", s.name, s.url, err)
	}
	return nil
}

// schedule runs op on an open-loop schedule — op i is due at start +
// i/rate whatever the previous ops took — until stop, and returns how
// late each op started, in milliseconds.
func schedule(start, stop time.Time, rate float64, op func(i int, due time.Time)) []float64 {
	var late []float64
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(stop) {
			return late
		}
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		op(i, due)
	}
}

// traffic is the subscription load running beside the updates: in-process
// churn and the SDK's Subscribe/Unsubscribe cycle.
type traffic struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	added    []*sub
	churnLag []float64
	churnOps int
	churnErr int
	sdkRTT   []float64
	sdkLag   []float64
	sdkOps   int
	sdkErr   int
}

// startTraffic launches the workload's subscription traffic from start to
// stop; wait collects it.
func startTraffic(w workload, d *deployment, urls []string, paths map[string]string, seed int64, start, stop time.Time, tr *tracer) *traffic {
	t := &traffic{}
	if w.churnPerSec > 0 {
		var pool []*sub
		for _, s := range d.subs {
			if !s.pinned {
				pool = append(pool, s)
			}
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			lag := schedule(start, stop, w.churnPerSec, func(i int, due time.Time) {
				k := rng.Intn(len(pool))
				old := pool[k]
				now := time.Now()
				old.setUntil(now)
				err := d.c.nodes[old.node].Unsubscribe(old.name, old.url)
				tr.span("unsubscribe", old.path, 0, now, time.Now())
				s := &sub{name: fmt.Sprintf("r%d", i), url: old.url, path: old.path, node: rng.Intn(clusterSize)}
				if err == nil {
					err = subscribe(d.c, s, tr)
				}
				t.mu.Lock()
				t.churnOps++
				if err != nil {
					t.churnErr++
				}
				t.added = append(t.added, s)
				t.mu.Unlock()
				pool[k] = s
			})
			t.mu.Lock()
			t.churnLag = lag
			t.mu.Unlock()
		}()
	}
	if w.sdkOpsPerSec > 0 && d.e != nil {
		cycle := urls[w.edgeChannels : 2*w.edgeChannels]
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			lag := schedule(start, stop, w.sdkOpsPerSec, func(i int, due time.Time) {
				u := cycle[(i/2)%len(cycle)]
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				call := time.Now()
				var err error
				name := "sdk.subscribe"
				if i%2 == 0 {
					err = d.e.sdk.Subscribe(ctx, u)
				} else {
					name = "sdk.unsubscribe"
					err = d.e.sdk.Unsubscribe(ctx, u)
				}
				end := time.Now()
				cancel()
				tr.span(name, paths[u], 0, call, end)
				t.mu.Lock()
				t.sdkOps++
				if err != nil {
					t.sdkErr++
				} else {
					t.sdkRTT = append(t.sdkRTT, ms(end.Sub(due)))
				}
				t.mu.Unlock()
			})
			t.mu.Lock()
			t.sdkLag = lag
			t.mu.Unlock()
		}()
	}
	return t
}

// run performs one benchmark run and assembles its report.
func run(w workload, seed int64, window time.Duration, traced bool) (*output, error) {
	a := addrsFor(seed)
	base := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(base)
	}
	org := newOrigin(w.channels, base, w.meanUpdate, jitter, horizon, seed, tr)
	l, err := net.Listen("tcp", a.origin())
	if err != nil {
		return nil, fmt.Errorf("origin listener: %w", err)
	}
	srv := &http.Server{Handler: org, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	urls := make([]string, w.channels)
	paths := make(map[string]string, w.channels)
	views := make(map[string]channelView, w.channels)
	for i := range urls {
		p := "/feed/" + strconv.Itoa(i)
		urls[i] = "http://" + a.origin() + p
		paths[urls[i]] = p
		views[p] = org.chans[p]
	}

	dir := filepath.Join(dataRoot, fmt.Sprintf("%s-%d", w.name, seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	var setupS []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		if d, err = setUp(w, a, dir, urls, paths, seed, tr); err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setupS = append(setupS, d.ready.Sub(d.start).Seconds())
	}
	defer d.close()
	owned := d.c.channelsOwned()
	fsType := filesystem(dir)

	t0 := d.ready.Add(warmup)
	t1 := t0.Add(window)
	traffic := startTraffic(w, d, urls, paths, seed, d.ready, t1, tr)
	time.Sleep(time.Until(t0))
	before := takeSnapshot(d.c, org)
	var sampled *sampler
	var slices []slice
	var meters []meter
	if traced {
		sampled = startSampler(d.c, 20*time.Millisecond)
		slices = alternate(tr, t0, t1)
		sampled.stop()
	} else {
		meters = meterSlices(t0, t1)
	}
	after := takeSnapshot(d.c, org)
	traffic.wg.Wait()
	time.Sleep(drain)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	subs := append(append([]*sub(nil), d.subs...), traffic.added...)
	if d.e != nil {
		subs = append(subs, d.e.subs()...)
	}
	res := audit(subs, views, auditRules{from: t0, to: t1, settle: settle, drain: drain})

	out := &output{verdict: verdict{Metrics: make(map[string]metric)}}
	versions := 0
	for _, c := range org.chans {
		versions += c.proc.published(t0, t1)
	}
	out.verdict.Attempted = res.expected + traffic.churnOps + traffic.sdkOps
	out.verdict.Failed = res.failures() + traffic.churnErr + traffic.sdkErr
	out.verdict.Correct = out.verdict.Failed == 0 && res.expected > 0

	out.linef("corona-load workload=%s seed=%d window=%v traced=%v: %s", w.name, seed, window, traced, w.why)
	out.linef("env go=%s commit=%s nproc=%d gomaxprocs=%d datadir_fs=%s host=%s", runtime.Version(), commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), fsType, a.host)
	out.linef("cluster channels_owned_per_node=%v subscriptions=%d setups_s=%s gate_after_owned_s=%.3f", owned, d.nsubs, fmtList(setupS), d.ready.Sub(d.owned).Seconds())
	out.linef("window versions_published=%d deliveries_expected=%d missing=%d duplicates=%d disorder=%d bad_diffs=%d versions_skipped=%d",
		versions, res.expected, res.missing, res.duplicates, res.disorder, res.badDiffs, res.skipped)
	all := make([]float64, len(res.samples))
	for i, s := range res.samples {
		all[i] = s.notify
	}
	notify := summarize(all)
	out.linef("notify_ms whole window p50=%.3f p90=%.3f p99=%.3f n=%d", notify.P50, notify.P90, notify.P99, notify.N)
	if w.churnPerSec > 0 || w.sdkOpsPerSec > 0 {
		cl, sl, rtt := summarize(traffic.churnLag), summarize(traffic.sdkLag), summarize(traffic.sdkRTT)
		out.linef("traffic churn_ops=%d churn_errors=%d churn_late_ms p50=%.3f max=%.3f sdk_ops=%d sdk_errors=%d sdk_late_ms p50=%.3f sdk_rtt_ms p50=%.3f p90=%.3f n=%d",
			traffic.churnOps, traffic.churnErr, cl.P50, maxOf(traffic.churnLag), traffic.sdkOps, traffic.sdkErr, sl.P50, rtt.P50, rtt.P90, rtt.N)
	}

	if !traced {
		notifyOf := func(s latency) float64 { return s.notify }
		p50, p50s := slicedQuantile(res.samples, notifyOf, t0, t1, 0.5)
		p90, p90s := slicedQuantile(res.samples, notifyOf, t0, t1, 0.9)
		p90u := perUpdateQuantile(res.samples, 0.9)
		fresh, freshs := slicedQuantile(res.samples, func(s latency) float64 { return s.fresh }, t0, t1, 0.5)
		var cpu, alloc, heap []float64
		for _, m := range meters {
			cpu = append(cpu, ratio(us(m.cpu), float64(m.receipts)))
			alloc = append(alloc, ratio(float64(m.alloc)/1024, float64(m.receipts)))
			heap = append(heap, float64(m.heap)/(1<<20))
		}
		out.linef("notify_p90_ms per-slice median=%.3f per-update median=%.3f", p90, p90u)
		out.linef("slices notify_p50_ms=%s notify_p90_ms=%s fresh_p50_ms=%s cpu_us_per_delivery=%s alloc_kb_per_delivery=%s heap_mb=%s",
			fmtList(p50s), fmtList(p90s), fmtList(freshs), fmtList(cpu), fmtList(alloc), fmtList(heap))
		out.linef("diffs bad=%d intact_frac=%.4f (reported, not counted as failures: see README)", res.badDiffs, res.intact())
		out.set("setup_s", medianOf(setupS), "s")
		out.set("notify_p50_ms", p50, "ms")
		out.set("notify_p90_ms", p90u, "ms")
		out.set("fresh_p50_ms", fresh, "ms")
		out.set("origin_polls_per_update", ratio(float64(after.ok+after.notMod-before.ok-before.notMod), float64(versions)), "count")
		out.set("cpu_us_per_delivery", medianOf(cpu), "us")
		out.set("alloc_kb_per_delivery", medianOf(alloc), "KB")
		out.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), "MB")
		out.set("delivered_frac", 1-ratio(float64(res.failures()), float64(res.expected)), "ratio")
	} else {
		layers(out, d, org, tr, before, after, sampled, slices, traffic, versions, t0, t1)
		path := filepath.Join(dataRoot, "trace", w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	out.printMetrics()
	return out, nil
}

// meter is one slice's process CPU, allocation and receipts.
type meter struct {
	cpu      time.Duration
	alloc    uint64
	receipts uint64
	heap     uint64 // HeapAlloc at the slice's end
}

// meterSlices sleeps through [t0, t1) in parts equal slices, metering
// each.
func meterSlices(t0, t1 time.Time) []meter {
	var m runtime.MemStats
	read := func() (time.Duration, uint64, uint64) {
		runtime.ReadMemStats(&m)
		return processCPU(), m.TotalAlloc, receipts.Load()
	}
	out := make([]meter, 0, parts)
	cpu, alloc, rc := read()
	for k := 1; k <= parts; k++ {
		time.Sleep(time.Until(t0.Add(t1.Sub(t0) * time.Duration(k) / parts)))
		c, a, r := read()
		out = append(out, meter{cpu: c - cpu, alloc: a - alloc, receipts: r - rc, heap: m.HeapAlloc})
		cpu, alloc, rc = c, a, r
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'f', 3, 64)
	}
	return s + "]"
}

// commit names the source revision the binary was built from, when the
// build recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// filesystem names the filesystem holding dir, which decides what an
// fsync costs the WAL.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
