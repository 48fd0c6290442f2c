// Command corona-node runs one live Corona overlay node: it joins (or
// bootstraps) a TCP ring, polls real HTTP feeds, and serves clients on
// two ports — the versioned binary client protocol (-client; what the
// corona/client SDK and corona-client speak) and the legacy line-oriented
// IM protocol (-im).
//
// Usage:
//
//	corona-node -bind 127.0.0.1:9001 -client 127.0.0.1:9201 -im 127.0.0.1:9101
//	corona-node -bind 127.0.0.1:9002 -client 127.0.0.1:9202 -im 127.0.0.1:9102 -seed-node 127.0.0.1:9001
//	corona-node -bind 127.0.0.1:9001 -client 127.0.0.1:9201 -data /var/lib/corona
//
// -data makes channel state durable: subscriptions, ownership, polling
// levels and version progress are journaled to a write-ahead log (with
// snapshot compaction) under the given directory, and a node restarted
// from the same directory and address recovers them, rejoins the ring,
// and keeps delivering updates without clients re-subscribing. SIGINT or
// SIGTERM triggers a graceful shutdown that flushes the log; a hard kill
// loses at most the records inside the group-commit window.
//
// The binary client protocol is specified in internal/clientproto; use
// the corona/client package to speak it.
//
// Legacy IM protocol (one command per line):
//
//	LOGIN <handle>          log in; notifications follow as MSG lines
//	SUBSCRIBE <url>         subscribe to a channel (acked with OK/ERR)
//	UNSUBSCRIBE <url>       unsubscribe (acked with OK/ERR)
//	QUIT                    disconnect
//
// Server lines:
//
//	OK <info> | ERR <reason> | MSG corona <quoted-body>
//
// A handle has one live session per node across every transport: a
// LOGIN for a handle already logged in over this port, the binary
// protocol or the web edge is refused. Nothing is buffered for a handle
// after QUIT: subscriptions stay in the overlay, but updates that arrive
// while no session is logged in are counted undeliverable and lost, as
// for every other client edge. Line sessions share the binary edge's
// outbox rules (internal/clientproto): a slow reader sees the oldest
// queued MSG lines dropped, not a stalled node.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"corona"
)

func main() {
	bind := flag.String("bind", "127.0.0.1:9001", "overlay TCP listen address")
	clientBind := flag.String("client", "127.0.0.1:9201", "binary client-protocol listen address (empty = disabled)")
	imBind := flag.String("im", "127.0.0.1:9101", "legacy IM line-protocol listen address (empty = disabled)")
	seedNode := flag.String("seed-node", "", "existing member to join through (empty = bootstrap)")
	scheme := flag.String("scheme", "lite", "lite, fast, fair, fair-sqrt, fair-log")
	fastTarget := flag.Duration("fast-target", 30*time.Second, "Corona-Fast detection target")
	poll := flag.Duration("poll", 30*time.Minute, "polling interval τ")
	maintenance := flag.Duration("maintenance", 0, "maintenance interval (default = τ)")
	nodes := flag.Int("n", 0, "node count hint for the optimizer (0 = estimate)")
	dataDir := flag.String("data", "", "data directory for durable channel state (empty = in-memory only)")
	delegateThreshold := flag.Int("delegate-threshold", 0, "subscriber count at which an owner shards a channel's fan-out across delegates (0 = disabled)")
	adminBind := flag.String("admin", "", "HTTP admin-plane listen address serving /metrics, /healthz, /readyz, /channels, /debug/pprof (empty = disabled)")
	webBind := flag.String("web", "", "web edge gateway listen address serving /ws (WebSocket) and /sse (Server-Sent Events) with replay-ring resume (empty = disabled)")
	webReplay := flag.Int("web-replay", 0, "web gateway per-channel replay ring capacity (0 = default)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	cfg := corona.LiveConfig{
		Bind:                *bind,
		Scheme:              parseScheme(*scheme),
		FastTarget:          *fastTarget,
		PollInterval:        *poll,
		MaintenanceInterval: *maintenance,
		NodeCountHint:       *nodes,
		DataDir:             *dataDir,
		ClientBind:          *clientBind,
		DelegateThreshold:   *delegateThreshold,
		AdminBind:           *adminBind,
		WebBind:             *webBind,
		WebReplayCap:        *webReplay,
	}
	if *seedNode != "" {
		cfg.Seeds = []string{*seedNode}
	}
	joinMode := "bootstrap"
	if len(cfg.Seeds) > 0 {
		joinMode = "join"
	}
	logger.Info("starting",
		"bind", *bind, "client", *clientBind, "im", *imBind, "admin", *adminBind,
		"web", *webBind, "scheme", fmt.Sprint(cfg.Scheme), "poll", cfg.PollInterval,
		"data_dir", *dataDir, "mode", joinMode, "seeds", cfg.Seeds)
	node, err := corona.StartLiveNode(cfg)
	if err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	imAddr := ""
	if *imBind != "" {
		if imAddr, err = node.ServeIM(*imBind); err != nil {
			node.Close()
			logger.Error("IM listener failed", "bind", *imBind, "err", err)
			os.Exit(1)
		}
	}
	logger.Info("started",
		"overlay", node.Addr(), "client", node.ClientAddr(), "admin", node.AdminAddr(),
		"web", node.WebAddr(), "im", imAddr, "scheme", fmt.Sprint(cfg.Scheme), "mode", joinMode)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	// Close drains every client session before the WAL flush.
	logger.Info("shutting down", "reason", fmt.Sprint(sig))
	if err := node.Close(); err != nil {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
	logger.Info("stopped")
}

func parseScheme(s string) corona.Scheme {
	switch strings.ToLower(s) {
	case "fast":
		return corona.Fast
	case "fair":
		return corona.Fair
	case "fair-sqrt":
		return corona.FairSqrt
	case "fair-log":
		return corona.FairLog
	default:
		return corona.Lite
	}
}
