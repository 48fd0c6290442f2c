package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"corona"
)

// Node settings shared by every workload. The poll interval is short so
// a run sees many updates; the delegate threshold sits below the flash
// crowd and above every longtail and churn channel, so delegates engage
// on flashcrowd only.
const (
	clusterSize       = 3
	pollInterval      = time.Second
	delegateThreshold = 400
)

// addrs are the loopback addresses one run binds. Node identifiers hash
// the advertised endpoint and the poll-phase seed defaults from it, so
// ephemeral ports would reshuffle channel ownership and poll phases on
// every run; a seed-derived host with fixed ports pins both per seed.
type addrs struct{ host string }

func addrsFor(seed int64) addrs {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return addrs{host: fmt.Sprintf("127.%d.%d.%d", 1+h%250, (h>>8)%256, 1+(h>>16)%250)}
}

func (a addrs) origin() string       { return a.host + ":7000" }
func (a addrs) overlay(i int) string { return fmt.Sprintf("%s:%d", a.host, 7101+i) }
func (a addrs) client(i int) string  { return fmt.Sprintf("%s:%d", a.host, 7201+i) }
func (a addrs) web(i int) string     { return fmt.Sprintf("%s:%d", a.host, 7301+i) }
func (a addrs) admin(i int) string   { return fmt.Sprintf("%s:%d", a.host, 7401+i) }

// cluster is the live deployment under test: three LiveNodes in this
// process, each journaling to its own data directory and serving the
// binary client protocol, the web gateway and the admin registry.
type cluster struct {
	nodes []*corona.LiveNode
	dir   string
}

// startCluster boots node 0 and joins the others through it. Every node
// gets the same configuration apart from its addresses, data directory
// and poll-phase seed.
func startCluster(a addrs, dir string, seed int64) (*cluster, error) {
	c := &cluster{dir: dir}
	for i := 0; i < clusterSize; i++ {
		cfg := corona.LiveConfig{
			Bind:              a.overlay(i),
			PollInterval:      pollInterval,
			NodeCountHint:     clusterSize,
			Replicas:          2,
			Seed:              seed<<2 | int64(i+1),
			DataDir:           filepath.Join(dir, fmt.Sprintf("node%d", i)),
			ClientBind:        a.client(i),
			WebBind:           a.web(i),
			AdminBind:         a.admin(i),
			DelegateThreshold: delegateThreshold,
		}
		if i > 0 {
			cfg.Seeds = []string{a.overlay(0)}
		}
		n, err := corona.StartLiveNode(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// close stops every node and removes the data directories.
func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	os.RemoveAll(c.dir)
}

// gate is the readiness condition a measurement window waits for.
type gate struct {
	// owned reports every subscription counted at its channel's owner.
	owned bool
	// ready adds: counted at both replicas too, exactly one owner per
	// channel, and every overlay send queue empty — so no whole-set
	// replicate push is still draining when the window opens.
	ready bool
}

// check evaluates the gate against the subscriber count each channel
// should hold.
func (c *cluster) check(want map[string]int) gate {
	g := gate{owned: true, ready: true}
	for url, n := range want {
		owners, counted := 0, 0
		for _, node := range c.nodes {
			info, ok := node.Channel(url)
			if !ok {
				continue
			}
			if info.Owner {
				owners++
				if info.Subscribers != n {
					g.owned = false
				}
			}
			if info.Subscribers == n {
				counted++
			}
		}
		if owners == 0 {
			g.owned = false
		}
		if owners != 1 || counted != len(c.nodes) {
			g.ready = false
		}
		if !g.owned {
			return gate{}
		}
	}
	if !g.ready {
		return g
	}
	for _, node := range c.nodes {
		for _, q := range node.PeerQueues() {
			if q.Depth > 0 {
				g.ready = false
				return g
			}
		}
	}
	return g
}

// waitReady polls the gate until it passes, returning when the owners
// first counted every subscription and when the whole gate passed.
func (c *cluster) waitReady(want map[string]int, timeout time.Duration) (owned, ready time.Time, err error) {
	deadline := time.Now().Add(timeout)
	for {
		g := c.check(want)
		now := time.Now()
		if g.owned && owned.IsZero() {
			owned = now
		}
		if g.ready {
			return owned, now, nil
		}
		if now.After(deadline) {
			return owned, now, fmt.Errorf("readiness gate not passed within %v (owners counted all: %v)", timeout, !owned.IsZero())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// channelsOwned lists how many channels each node owns.
func (c *cluster) channelsOwned() []int {
	out := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Stats().ChannelsOwned
	}
	return out
}
