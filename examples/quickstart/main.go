// Quickstart: an in-process, real-time Corona cluster.
//
// Eight live nodes join a ring over TCP loopback and cooperatively poll
// one synthetic RSS feed served over real HTTP; an in-process subscriber
// receives delta-encoded notifications within a fraction of the polling
// interval — the cooperative-polling speedup of the paper, live on your
// machine in a few seconds. It exits non-zero if five notifications do
// not arrive within 10 s of subscribing.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"corona"
	"corona/internal/feed"
	"corona/internal/webserver"
)

func main() {
	// A feed origin on loopback publishing fresh items every second.
	origin := webserver.NewOrigin()
	const path = "/headlines.xml"
	origin.Host(webserver.ChannelConfig{
		URL:       path,
		Process:   webserver.PeriodicProcess{Origin: time.Now(), Interval: time.Second},
		Generator: feed.NewGenerator(path, 1),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(l, webserver.NewHTTPOrigin(origin, time.Now))
	feedURL := "http://" + l.Addr().String() + path

	// Eight nodes, each joining the ring through the first.
	var nodes []*corona.LiveNode
	var seeds []string
	for i := 0; i < 8; i++ {
		n, err := corona.StartLiveNode(corona.LiveConfig{
			Bind:                "127.0.0.1:0",
			Seeds:               seeds,
			Scheme:              corona.Lite,
			PollInterval:        500 * time.Millisecond, // demo cadence; deployments use 30m
			MaintenanceInterval: 2 * time.Second,
			NodeCountHint:       8,
		})
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		seeds = []string{nodes[0].Addr()}
	}

	// Alice is an in-process subscriber entering the ring at node 1. Her
	// callback runs on the node's delivery goroutine, so it hands off
	// without blocking; the buffer holds more updates than the demo waits
	// for.
	notifications := make(chan corona.Notification, 16)
	entry := nodes[1]
	entry.Attach("alice", func(n corona.Notification) {
		select {
		case notifications <- n:
		default:
		}
	})
	if err := entry.Subscribe("alice", feedURL); err != nil {
		log.Fatal(err)
	}
	fmt.Println("subscribed alice to", feedURL)

	deadline := time.After(10 * time.Second)
	received := 0
	for received < 5 {
		select {
		case n := <-notifications:
			received++
			fmt.Printf("\n[%s] update v%d on %s\n", n.At.Format("15:04:05.000"), n.Version, n.Channel)
			// The diff is Corona's POSIX-style delta encoding: only the
			// changed lines travel (paper §3.4).
			preview := n.Diff
			if len(preview) > 400 {
				preview = preview[:400] + "\n..."
			}
			fmt.Println(preview)
		case <-deadline:
			log.Fatalf("timed out after %d notifications", received)
		}
	}

	var detected, notified uint64
	var pollers, subscribers int
	for _, n := range nodes {
		st := n.Stats()
		detected += st.UpdatesDetected
		notified += st.NotificationsSent
		if info, ok := n.Channel(feedURL); ok {
			if info.Polling {
				pollers++
			}
			if info.Owner {
				subscribers = info.Subscribers
			}
		}
	}
	fmt.Printf("\ncluster stats: %d nodes, %d polls to the origin, %d updates detected, %d notifications\n",
		len(nodes), origin.TotalLoad().Polls, detected, notified)
	fmt.Printf("channel status: %d subscriber(s), %d cooperative poller(s)\n", subscribers, pollers)
}
