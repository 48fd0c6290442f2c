package clientproto

import (
	"bytes"
	"crypto/rand"
	"sync"
	"sync/atomic"
	"time"
)

// SessionTable is the node's client registry: the one handle-keyed map
// of who is connected, shared by every client-facing transport (the
// binary and line servers and the web gateway's WebSocket/SSE
// frontends), and the node's notifier (core.Notifier), delivering each
// notification batch to the sessions it names.
//
// As a session registry it holds the displacement and resumption
// semantics specified in this package's doc across transports: a handle
// has at most one live session per node regardless of how it connected,
// a newer login presenting the live session's token evicts the old
// connection wherever it attached, and a token minted over one transport
// resumes over another (a binary client falling back to SSE through a
// proxy keeps its session identity).
type SessionTable struct {
	now func() time.Time
	// replay, once EnableReplay runs, records every update NotifyBatch
	// sees, for resuming sessions. NotifyBatch reads it without taking mu.
	replay atomic.Pointer[Replay]

	mu            sync.Mutex
	sessions      map[string]*TableSession
	undeliverable uint64 // notifications for a client with no session
	notifyBatches uint64 // NotifyBatch calls received
	batchClients  uint64 // clients covered by those batches
}

// TableSession is one live claim on a handle. Its pointer identity is
// the claim: End releases the handle only when the claimant still owns
// it, so a displaced session cannot end its successor.
type TableSession struct {
	token     []byte
	transport string
	evict     func()
	deliver   func(Notification)
}

// NewSessionTable returns an empty table. now stamps notifications that
// carry no detection time (time.Now when nil).
func NewSessionTable(now func() time.Time) *SessionTable {
	if now == nil {
		now = time.Now
	}
	return &SessionTable{now: now, sessions: make(map[string]*TableSession)}
}

// Begin claims handle for a new session on the named transport, whose
// notifications go to deliver. A live session for the handle is
// displaced — its evict func called — only when the presented token
// matches its token; otherwise the claim is refused. With no live
// session, a presented token is adopted (failover resume on a node that
// never saw this client) and an empty one is replaced by a fresh mint;
// the returned token is what the client presents next time.
//
// evict is called under the table lock, when a LATER claim displaces
// this session; it must only schedule the old connection's teardown
// (closing the socket is fine), never re-enter the table synchronously.
func (t *SessionTable) Begin(handle string, token []byte, transport string, evict func(), deliver func(Notification)) (tok []byte, sess *TableSession, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, live := t.sessions[handle]; live && (len(token) == 0 || !bytes.Equal(token, prev.token)) {
		return nil, nil, false
	}
	if len(token) == 0 {
		token = make([]byte, tokenLen)
		rand.Read(token)
	}
	sess = &TableSession{token: token, transport: transport, evict: evict, deliver: deliver}
	t.claim(handle, sess)
	return token, sess, true
}

// Claim is an in-process claim on handle: deliver receives its
// notifications. It displaces whatever holds the handle and mints no
// token, so no network login can displace it in turn. The returned
// release ends this claim only.
func (t *SessionTable) Claim(handle string, deliver func(Notification)) (release func()) {
	sess := &TableSession{transport: "inproc", deliver: deliver}
	t.mu.Lock()
	t.claim(handle, sess)
	t.mu.Unlock()
	return func() { t.End(handle, sess) }
}

// claim installs sess as handle's holder, evicting the previous one;
// callers hold t.mu.
func (t *SessionTable) claim(handle string, sess *TableSession) {
	if prev := t.sessions[handle]; prev != nil && prev.evict != nil {
		prev.evict() // stale connection; its teardown path cleans up
	}
	t.sessions[handle] = sess
}

// End releases handle if sess still owns it.
func (t *SessionTable) End(handle string, sess *TableSession) {
	t.mu.Lock()
	if cur, ok := t.sessions[handle]; ok && cur == sess {
		delete(t.sessions, handle)
	}
	t.mu.Unlock()
}

// Count returns the number of live sessions begun on one transport.
func (t *SessionTable) Count(transport string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.sessions {
		if s.transport == transport {
			n++
		}
	}
	return n
}

// EnableReplay makes the table record every update it notifies in
// per-channel replay rings of DefaultReplayCap versions, and returns the
// rings. Later calls return the same rings; a node without a web edge
// never calls it and holds no rings.
func (t *SessionTable) EnableReplay() *Replay {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.replay.Load() == nil {
		t.replay.Store(NewReplay(DefaultReplayCap))
	}
	return t.replay.Load()
}

// NotifyBatch implements the Corona node's Notifier: every listed client
// receives the same update through its session's deliverer; a client
// with no session on this node — it quit, or failed over to another node
// whose lease refresh re-points its subscriptions — is counted as
// undeliverable. The recipients share one Notification value carrying
// one Shared cell, so each edge encodes the update once and hands the
// same bytes to every session.
func (t *SessionTable) NotifyBatch(clients []string, channelURL string, version uint64, diff string, at time.Time) {
	if len(clients) == 0 {
		return
	}
	if at.IsZero() {
		at = t.now()
	}
	if r := t.replay.Load(); r != nil {
		// Before any deliverer, and before the recipients are looked up:
		// a session resuming later must find every update it missed,
		// clients with no session included, and a subscribe's catch-up
		// must find any live update it held back.
		r.Append(channelURL, version, diff, at)
	}
	// Recipients are collected under the lock and delivered outside it;
	// the inline array keeps small batches off the heap.
	type recipient struct {
		client  string
		deliver func(Notification)
	}
	var inline [8]recipient
	live := inline[:0]
	t.mu.Lock()
	t.notifyBatches++
	t.batchClients += uint64(len(clients))
	for _, c := range clients {
		if s, ok := t.sessions[c]; ok {
			live = append(live, recipient{c, s.deliver})
		} else {
			t.undeliverable++
		}
	}
	t.mu.Unlock()
	// Sequentially: the first deliverer fills the Shared cell, the rest
	// reuse it.
	n := Notification{Channel: channelURL, Version: version, Diff: diff, At: at, Shared: &Shared{}}
	for _, r := range live {
		n.Client = r.client
		r.deliver(n)
	}
}

// DeliveryStats is one coherent snapshot of the table's delivery
// counters.
type DeliveryStats struct {
	Undeliverable uint64
	NotifyBatches uint64
	BatchClients  uint64
}

// DeliveryStats reads every delivery counter under one lock acquisition,
// so callers assembling stats (the admin plane's /metrics, LiveStats)
// never publish a torn view — Undeliverable from before a batch landed
// next to BatchClients from after it.
func (t *SessionTable) DeliveryStats() DeliveryStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return DeliveryStats{
		Undeliverable: t.undeliverable,
		NotifyBatches: t.notifyBatches,
		BatchClients:  t.batchClients,
	}
}
