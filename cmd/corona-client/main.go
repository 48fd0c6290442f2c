// Command corona-client is a subscriber for a live Corona cloud, built on
// the corona/client SDK: it connects to one of the given nodes' client
// ports, subscribes to the given URLs, and prints notifications as they
// arrive — the "feed reader" end of the system. Given several node
// addresses it survives node failure: the SDK resumes the session against
// the next address and replays the subscriptions there, one Subscribe
// each; the serving node keeps their leases alive.
//
// Usage:
//
//	corona-client -nodes 127.0.0.1:9201,127.0.0.1:9202 -handle alice \
//	    http://127.0.0.1:8080/feed/0.xml http://127.0.0.1:8080/feed/1.xml
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"corona/client"
)

func main() {
	nodeList := flag.String("nodes", "127.0.0.1:9201", "comma-separated corona-node client addresses (failover order)")
	handle := flag.String("handle", "reader", "subscriber handle")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout (dial, subscribe)")
	flag.Parse()
	urls := flag.Args()
	if len(urls) == 0 {
		log.Fatal("usage: corona-client -nodes <addr,addr,...> -handle <name> <url>...")
	}
	var addrs []string
	for _, a := range strings.Split(*nodeList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	conn, err := client.Dial(ctx, addrs, client.Options{Handle: *handle})
	cancel()
	if err != nil {
		log.Fatalf("connecting: %v", err)
	}
	defer conn.Close()
	for _, u := range urls {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err := conn.Subscribe(ctx, u)
		cancel()
		if err != nil {
			log.Fatalf("subscribe %s: %v", u, err)
		}
	}
	log.Printf("corona-client: %s via %s, watching %d channels", *handle, conn.Addr(), len(urls))

	for n := range conn.Notifications() {
		fmt.Printf("--- %s v%d at %s ---\n%s\n",
			n.Channel, n.Version, n.At.Format(time.RFC3339), n.Diff)
	}
}
