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
//	LOGIN <handle>          register/login; notifications follow as MSG lines
//	SUBSCRIBE <url>         subscribe to a channel (acked with OK/ERR)
//	UNSUBSCRIBE <url>       unsubscribe (acked with OK/ERR)
//	QUIT                    disconnect (handle goes offline; messages buffer)
//
// Server lines:
//
//	OK <info> | ERR <reason> | MSG <from> <quoted-body>
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"corona"
	"corona/internal/im"
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
	logger.Info("started",
		"overlay", node.Addr(), "client", node.ClientAddr(), "admin", node.AdminAddr(),
		"web", node.WebAddr(), "im", *imBind, "scheme", fmt.Sprint(cfg.Scheme), "mode", joinMode)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	if *imBind == "" {
		// Client-protocol only: block until a shutdown signal.
		sig := <-sigs
		shutdown(logger, node, sig)
		return
	}

	ln, err := net.Listen("tcp", *imBind)
	if err != nil {
		node.Close()
		logger.Error("IM listener failed", "bind", *imBind, "err", err)
		os.Exit(1)
	}

	// A blocking Accept loop never reaches a defer, so shutdown runs off
	// the signal handler: close the client-protocol listener (draining
	// its per-connection writer goroutines, so no client dies mid-frame)
	// alongside the IM listener (unblocking Accept), then stop the node,
	// which flushes the durable store only after client traffic is done.
	var shuttingDown atomic.Bool
	var sig os.Signal
	go func() {
		sig = <-sigs
		shuttingDown.Store(true)
		node.CloseClients()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if shuttingDown.Load() {
				break
			}
			logger.Error("accept failed", "err", err)
			os.Exit(1)
		}
		go serveIM(conn, node)
	}
	shutdown(logger, node, sig)
}

// shutdown is the single graceful-exit path: stop the node (flushing
// the durable store) and report.
func shutdown(logger *slog.Logger, node *corona.LiveNode, sig os.Signal) {
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

// subscriber is the node surface serveIM drives (LiveNode implements it;
// tests substitute fakes).
type subscriber interface {
	Subscribe(client, url string) error
	Unsubscribe(client, url string) error
}

// imService is the IM surface serveIM drives.
type imService interface {
	Register(handle string)
	Login(handle string, deliver im.DeliverFunc) error
	Logout(handle string)
}

// serveIM bridges one TCP client to the node's IM service, acking every
// command: a SUBSCRIBE or UNSUBSCRIBE that cannot be issued replies ERR
// instead of silently vanishing into a fire-and-forget IM send.
func serveIM(conn net.Conn, node *corona.LiveNode) {
	serveIMOn(conn, node, node.IM())
}

func serveIMOn(conn net.Conn, node subscriber, service imService) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	out := bufio.NewWriter(conn)
	// reply is called from this goroutine (command acks) and from IM
	// delivery callbacks on gateway pacing timers (MSG lines); the mutex
	// keeps the two from interleaving partial lines in the writer.
	var outMu sync.Mutex
	reply := func(format string, args ...any) {
		outMu.Lock()
		defer outMu.Unlock()
		fmt.Fprintf(out, format+"\n", args...)
		out.Flush()
	}
	var handle string
	defer func() {
		if handle != "" {
			service.Logout(handle)
		}
	}()
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		switch {
		case cmd == "LOGIN" && len(fields) == 2:
			if handle != "" {
				reply("ERR already logged in as %s", handle)
				continue
			}
			h := fields[1]
			service.Register(h)
			err := service.Login(h, func(m im.Message) {
				// Quote the body so multi-line diffs survive the line
				// protocol.
				reply("MSG %s %s", m.From, strconv.Quote(m.Body))
			})
			if err != nil {
				reply("ERR %v", err)
				continue
			}
			handle = h
			reply("OK logged in as %s", h)
		case cmd == "SUBSCRIBE" && len(fields) == 2 && handle != "":
			if err := node.Subscribe(handle, fields[1]); err != nil {
				reply("ERR %v", err)
				continue
			}
			reply("OK subscribed %s", fields[1])
		case cmd == "UNSUBSCRIBE" && len(fields) == 2 && handle != "":
			if err := node.Unsubscribe(handle, fields[1]); err != nil {
				reply("ERR %v", err)
				continue
			}
			reply("OK unsubscribed %s", fields[1])
		case cmd == "QUIT":
			reply("OK bye")
			return
		default:
			reply("ERR expected LOGIN <handle> | SUBSCRIBE <url> | UNSUBSCRIBE <url> | QUIT")
		}
	}
}
