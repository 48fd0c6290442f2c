package core

import (
	"fmt"
	"time"

	"corona/internal/clock"
	"corona/internal/pastry"
	"corona/internal/store"
)

// Seams are what a member takes from its runtime: a live node passes a
// netwire overlay, the real clock and an HTTP fetcher, a simulated one a
// simnet overlay, the simulator and an origin fetcher. Overlay is built
// by the caller and not yet in a ring (or on a static one); Sink may be
// nil; an empty Store.Dir keeps the member's state in memory.
//
// OwnerSend and EntryRecv, either of which may be nil, observe the
// notification path, each with the elapsed time since the update's
// detection: OwnerSend as the owner hands an update to dissemination,
// EntryRecv as an entry node receives a notify batch for its attached
// clients. The admin plane feeds them into latency histograms; a member
// without observers pays only a nil check.
type Seams struct {
	Overlay   *pastry.Node
	Clock     clock.Clock
	Fetcher   Fetcher
	Notifier  Notifier
	Sink      DetectionSink
	Store     store.Options
	OwnerSend func(time.Duration)
	EntryRecv func(time.Duration)
}

// Member is one assembled Corona node: the protocol node and, when its
// seams name a store directory, the store journaling it. Every node in
// the tree, live or simulated, is built by Assemble and enters, starts
// and leaves the ring through its Member.
type Member struct {
	*Node
	store *store.Store
}

// Assemble builds a member on its seams. With a store directory it opens
// the store and restores the recovered channels before the member joins,
// so the ring sees a member that already holds its subscriptions. The
// member then enters the ring through one of Bootstrap, Join, or Start
// when its overlay is on a static ring already.
func Assemble(cfg Config, s Seams) (*Member, error) {
	m := &Member{Node: NewNode(cfg, s.Overlay, s.Clock, s.Fetcher, s.Notifier, s.Sink)}
	m.obsOwnerSend, m.obsEntryRecv = s.OwnerSend, s.EntryRecv
	if s.Store.Dir == "" {
		return m, nil
	}
	st, recovered, err := store.Open(s.Store)
	if err != nil {
		return nil, fmt.Errorf("opening data dir: %w", err)
	}
	m.store = st
	m.SetStateSink(st)
	m.RestoreChannels(recovered)
	return m, nil
}

// Store returns the member's durable store, nil when it has none.
func (m *Member) Store() *store.Store { return m.store }

// Start starts the protocol, then reconciles channels recovered from the
// store against the ring: it resumes ownership of those the member still
// roots and hands the rest to their current owners.
func (m *Member) Start() {
	m.Node.Start()
	if m.store != nil {
		m.ReconcileRecovered()
	}
}

// Bootstrap makes the member the first of a new ring and starts it.
func (m *Member) Bootstrap() {
	m.overlay.Bootstrap()
	m.Start()
}

// Join enters the ring through seeds in order, each given the join
// re-sent once a second and timeout to answer, and starts the member once
// the join completes. done runs once, where pastry.Node.JoinWait reports
// (before Join returns when no join can be sent): true once the member
// has started, false when no seed answered.
func (m *Member) Join(seeds []pastry.Addr, timeout time.Duration, done func(joined bool)) {
	if len(seeds) == 0 {
		done(false)
		return
	}
	m.overlay.JoinWait(seeds[0], time.Second, timeout, func(joined bool) {
		if !joined {
			m.Join(seeds[1:], timeout, done)
			return
		}
		m.Start()
		done(true)
	})
}

// Stop is a graceful shutdown: the protocol stops, and the store flushes
// its commit window and closes.
func (m *Member) Stop() error {
	m.Node.Stop()
	if m.store == nil {
		return nil
	}
	return m.store.Close()
}

// Crash stops the protocol and abandons the store without a flush,
// losing what sat inside its commit window, as a crash does.
func (m *Member) Crash() {
	m.Node.Stop()
	if m.store != nil {
		m.store.Abort()
	}
}
