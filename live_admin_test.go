package corona

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"corona/internal/clientproto"
	"corona/internal/clock"
	"corona/internal/core"
	"corona/internal/netwire"
	"corona/internal/pastry"
	"corona/internal/store"
)

// TestLiveStatsSpecCompleteness reflects over LiveStats and asserts that
// every numeric field (embedded structs included) has a liveStatsSpec
// row, save the two that make up the store's commit-latency histogram.
// Adding a counter to core.Stats or LiveStats without wiring it into the
// admin registry fails here, not on a dashboard later. Rows sharing a
// family must agree on its help, kind and label, and name distinct
// series.
func TestLiveStatsSpecCompleteness(t *testing.T) {
	// Fields exposed as histogram components rather than spec rows.
	histogramCovered := map[string]string{
		"Store.CommitLatency":    "corona_store_commit_latency_seconds buckets",
		"Store.CommitLatencySum": "corona_store_commit_latency_seconds sum",
	}

	specFields := make(map[string]liveStatSpec, len(liveStatsSpec))
	families := make(map[string]liveStatSpec, len(liveStatsSpec))
	series := make(map[string]string, len(liveStatsSpec))
	for _, spec := range liveStatsSpec {
		if _, dup := specFields[spec.field]; dup {
			t.Errorf("duplicate spec entry for field %s", spec.field)
		}
		specFields[spec.field] = spec
		if first, ok := families[spec.name]; !ok {
			families[spec.name] = spec
		} else if first.help != spec.help || first.kind != spec.kind || first.label != spec.label || spec.label == "" {
			t.Errorf("rows %s and %s of family %s disagree on help, kind or label", first.field, spec.field, spec.name)
		}
		if (spec.label == "") != (spec.value == "") {
			t.Errorf("spec field %s has a label without a value or a value without a label", spec.field)
		}
		key := spec.name + "{" + spec.label + "=" + spec.value + "}"
		if prev, dup := series[key]; dup {
			t.Errorf("series %s used by both %s and %s", key, prev, spec.field)
		}
		series[key] = spec.field
		if _, ok := liveStatValue(LiveStats{}, spec.field); !ok {
			t.Errorf("spec field %s does not resolve to a numeric LiveStats field", spec.field)
		}
	}

	var exposed []string
	var walk func(rt reflect.Type, prefix string)
	walk = func(rt reflect.Type, prefix string) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			path := prefix + f.Name
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(f.Type, path+".")
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
				reflect.Float32, reflect.Float64:
				exposed = append(exposed, path)
			case reflect.Slice:
				switch f.Type.Elem().Kind() {
				case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
					reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
					reflect.Float32, reflect.Float64:
					exposed = append(exposed, path)
				}
			}
		}
	}
	walk(reflect.TypeOf(LiveStats{}), "")

	for _, path := range exposed {
		_, inSpec := specFields[path]
		_, inHist := histogramCovered[path]
		if !inSpec && !inHist {
			t.Errorf("LiveStats field %s has no registered metric: add it to liveStatsSpec", path)
		}
		if inSpec && inHist {
			t.Errorf("LiveStats field %s is double-covered", path)
		}
	}
	for path := range histogramCovered {
		found := false
		for _, p := range exposed {
			if p == path {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("histogram coverage entry %s no longer exists in LiveStats", path)
		}
	}
}

// startUnjoinedNode hand-assembles a LiveNode that has bound its
// transport and opened its store but NOT joined the ring — the state
// StartLiveNode passes through between ServeAdmin and the join, which
// /readyz must report as 503.
func startUnjoinedNode(t *testing.T) *LiveNode {
	t.Helper()
	transport, err := netwire.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	self := pastry.Addr{ID: idFromEndpoint(transport.Addr()), Endpoint: transport.Addr()}
	overlay := pastry.NewNode(pastry.DefaultConfig(), self, transport, clock.Real{})
	transport.OnDeliver(overlay.Deliver)
	ccfg := core.DefaultConfig()
	ccfg.PollInterval = time.Hour
	ccfg.MaintenanceInterval = time.Hour
	fetcher := core.NewHTTPFetcher(ccfg.PollInterval)
	sessions := clientproto.NewSessionTable(nil)
	node, err := core.Assemble(ccfg, core.Seams{
		Overlay:  overlay,
		Clock:    clock.Real{},
		Fetcher:  fetcher,
		Notifier: sessions,
		Store:    store.Options{Dir: t.TempDir()},
	})
	if err != nil {
		transport.Close()
		t.Fatal(err)
	}
	ln := &LiveNode{
		transport: transport,
		overlay:   overlay,
		node:      node,
		fetcher:   fetcher,
		sessions:  sessions,
	}
	ln.reg = ln.newRegistry()
	return ln
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminReadiness walks /readyz through its full lifecycle: 503
// while the ring join is pending, 200 once joined with a healthy store,
// and back to 503 when the store latches an IO error — with /healthz
// reporting plain process liveness (200) throughout.
func TestAdminReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	ln := startUnjoinedNode(t)
	defer ln.Close()
	addr, err := ln.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before join: got %d, want 200", code)
	}
	code, body := httpGet(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before join: got %d, want 503 (body %q)", code, body)
	}
	if !strings.Contains(body, "join") {
		t.Fatalf("/readyz 503 body should name the join: %q", body)
	}

	ln.node.Bootstrap()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = httpGet(t, base+"/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never turned 200 after bootstrap: last %d %q", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ln.node.Store().InjectIOError(errors.New("injected disk fault"))
	code, body = httpGet(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with latched store error: got %d, want 503 (body %q)", code, body)
	}
	if !strings.Contains(body, "injected disk fault") {
		t.Fatalf("/readyz 503 body should carry the store error: %q", body)
	}
	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz with latched store error: got %d, want 200", code)
	}

	_, metricsBody := httpGet(t, base+"/metrics")
	if !strings.Contains(metricsBody, "corona_store_io_error 1") {
		t.Fatalf("/metrics should report corona_store_io_error 1 after injection")
	}
	if !strings.Contains(metricsBody, "corona_overlay_joined 1") {
		t.Fatalf("/metrics should report corona_overlay_joined 1 after bootstrap")
	}

	if _, err := ln.ServeAdmin("127.0.0.1:0"); err == nil {
		t.Fatal("second ServeAdmin should fail")
	}
}

// TestAdminMetricsRegistryBuilds asserts the registry renders every
// spec-declared family and labelled series, the web edge's included,
// even on a fresh in-memory node (no store, no clients, no web edge): a
// scrape must never 500 or panic because a subsystem is absent.
func TestAdminMetricsRegistryBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	n, err := StartLiveNode(LiveConfig{
		Bind:         "127.0.0.1:0",
		AdminBind:    "127.0.0.1:0",
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	_, body := httpGet(t, "http://"+n.AdminAddr()+"/metrics")
	for _, spec := range liveStatsSpec {
		if !strings.Contains(body, fmt.Sprintf("# TYPE %s", spec.name)) {
			t.Errorf("/metrics missing family %s", spec.name)
		}
	}
	if !strings.Contains(body, "corona_store_enabled 0") {
		t.Error("/metrics should report corona_store_enabled 0 on an in-memory node")
	}
	if !strings.Contains(body, "# TYPE corona_notify_stage_latency_seconds histogram") {
		t.Error("/metrics missing the notify-stage latency histogram family")
	}
	for _, spec := range liveStatsSpec {
		if spec.label == "" {
			continue
		}
		if sample := fmt.Sprintf("%s{%s=%q} 0", spec.name, spec.label, spec.value); !strings.Contains(body, sample) {
			t.Errorf("/metrics missing %s on an idle node", sample)
		}
	}

	// A line login moves the line series of the client-sessions gauge,
	// read from the same session table as the binary series.
	imAddr, err := n.ServeIM("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", imAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "LOGIN alice\n")
	if line, err := bufio.NewReader(conn).ReadString('\n'); line != "OK logged in as alice\n" {
		t.Fatalf("line login reply %q, %v", line, err)
	}
	_, body = httpGet(t, "http://"+n.AdminAddr()+"/metrics")
	for _, sample := range []string{
		`corona_client_sessions{transport="line"} 1`,
		`corona_client_sessions{transport="binary"} 0`,
	} {
		if !strings.Contains(body, sample+"\n") {
			t.Errorf("/metrics after a line login lacks %s", sample)
		}
	}
}
