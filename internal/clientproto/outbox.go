package clientproto

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Outbox tunables, shared by every client-facing edge.
const (
	// DefaultQueueLen is the per-session bound on queued notifies, and
	// separately on queued control items.
	DefaultQueueLen = 256
	// WriteTimeout bounds one socket write to a client.
	WriteTimeout = 10 * time.Second
	// closeDrainTimeout bounds how long Edge.Shutdown waits for sessions
	// to write what they hold before force-closing them: a graceful node
	// shutdown should not cut a stream mid-frame, but neither should one
	// wedged client hold the WAL flush hostage.
	closeDrainTimeout = 3 * time.Second
)

// CloseCause says why a session's outbox closed.
type CloseCause int

const (
	// CloseGone: the client went away or the edge is shutting down. The
	// writer still writes what is queued.
	CloseGone CloseCause = iota
	// CloseDisplaced: a newer login took the handle. The connection is
	// torn down at once.
	CloseDisplaced
	// CloseSlow: the client let queued control items reach the bound.
	// The connection is torn down at once.
	CloseSlow
)

// Queued is one item of an outbox's queue: a framing-specific message,
// and for notifies the channel and version it delivers.
type Queued[T any] struct {
	Msg     T
	Channel string
	Version uint64
	notify  bool
}

// EdgeStats is one edge's delivery accounting, summed over its sessions.
type EdgeStats struct {
	// Notifies counts notifies queued.
	Notifies uint64
	// DroppedSlow counts notifies evicted from a full queue.
	DroppedSlow uint64
	// DroppedOversize counts notifies beyond the edge's message bound.
	DroppedOversize uint64
	// ClosedDisplaced counts sessions closed by a displacing login.
	ClosedDisplaced uint64
	// ClosedSlow counts sessions closed with their control bound reached.
	ClosedSlow uint64
}

// Edge is what the outboxes of one client-facing edge share: the queue
// bound, the notify encoder, the enqueue-stage latency observer, the
// counters, and the set of live sessions its Shutdown drains.
type Edge[T any] struct {
	queueLen int
	encode   func(Notification) (msg T, ok bool)
	observe  func(time.Duration)

	notifies, droppedSlow, droppedOversize, closedDisplaced, closedSlow atomic.Uint64

	mu     sync.Mutex
	live   map[*Outbox[T]]struct{}
	closed bool
	ended  sync.WaitGroup
}

// NewEdge returns an edge whose sessions queue at most queueLen notifies.
// encode turns a notification into
// the edge's queued message, and reports false for one beyond the edge's
// message bound; it runs once per recipient, so it should cache its work
// in the notification's Shared cell. observe, when set, receives the
// time from an update's detection to its notify entering a queue; it
// runs under the outbox's lock, so the writer cannot send the notify
// before it is counted, and must not block.
func NewEdge[T any](queueLen int, encode func(Notification) (T, bool), observe func(time.Duration)) *Edge[T] {
	return &Edge[T]{queueLen: queueLen, encode: encode, observe: observe, live: make(map[*Outbox[T]]struct{})}
}

// Stats snapshots the edge's counters.
func (e *Edge[T]) Stats() EdgeStats {
	return EdgeStats{
		Notifies:        e.notifies.Load(),
		DroppedSlow:     e.droppedSlow.Load(),
		DroppedOversize: e.droppedOversize.Load(),
		ClosedDisplaced: e.closedDisplaced.Load(),
		ClosedSlow:      e.closedSlow.Load(),
	}
}

// Open starts one session's outbox; ok is false once Shutdown has begun.
// teardown, when set, force-closes the session's connection: it runs
// when the session is displaced or too slow, and when Shutdown's drain
// window runs out. The session calls End once its writer has returned.
func (e *Edge[T]) Open(teardown func()) (o *Outbox[T], ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, false
	}
	o = &Outbox[T]{
		edge:     e,
		teardown: teardown,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		last:     make(map[string]uint64),
		gated:    make(map[string]struct{}),
	}
	e.live[o] = struct{}{}
	e.ended.Add(1)
	return o, true
}

// Shutdown is every edge's Close rule. It refuses new sessions and
// closes every live outbox, so each writer writes what its session
// holds; sessions still running after closeDrainTimeout are
// force-closed. It returns once every session has ended.
func (e *Edge[T]) Shutdown() {
	e.mu.Lock()
	e.closed = true
	live := make([]*Outbox[T], 0, len(e.live))
	for o := range e.live {
		live = append(live, o)
	}
	e.mu.Unlock()
	for _, o := range live {
		o.Close(CloseGone)
	}
	ended := make(chan struct{})
	go func() {
		e.ended.Wait()
		close(ended)
	}()
	select {
	case <-ended:
	case <-time.After(closeDrainTimeout):
		e.mu.Lock()
		live = live[:0]
		for o := range e.live {
			live = append(live, o)
		}
		e.mu.Unlock()
		for _, o := range live {
			if o.teardown != nil {
				o.teardown()
			}
		}
		<-ended
	}
}

// Outbox is one session's outbound queue, whatever its transport. It
// holds a bounded queue with one shed rule — when the queue holds its
// bound of notifies, the oldest queued notify is evicted; a control item
// is never shed, but a session that lets its bound of control items pile
// up is closed as slow — and the per-channel watermark and subscribe
// gate that merge replayed and live delivery exactly once. Its key set
// is the session's channel set for lease refreshes.
//
// One mutex orders the three things that must not interleave: live
// delivery, the subscribe path's replay, and the watermark. Items enter
// the queue already filtered, so the writer emits them in queue order
// with no further checks.
type Outbox[T any] struct {
	edge     *Edge[T]
	teardown func()
	kick     chan struct{} // cap 1: the writer takes the whole queue per kick
	done     chan struct{} // closed once, by Close

	mu       sync.Mutex
	queue    []Queued[T]
	notifies int // notifies in queue
	controls int // control items in queue
	closed   bool
	overflow bool // a control item found the bound full under the lock
	// last is the per-channel watermark: a notify is queued only with a
	// version strictly above it.
	last map[string]uint64
	// gated marks channels mid-subscribe: live deliveries are suppressed
	// until the subscribe's catch-up has run.
	gated map[string]struct{}
}

// Done is closed when the outbox closes.
func (o *Outbox[T]) Done() <-chan struct{} { return o.done }

// Close closes the outbox once, counting why. Safe from any goroutine,
// including under the session table's lock: it never re-enters the
// table.
func (o *Outbox[T]) Close(cause CloseCause) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	close(o.done)
	o.signal()
	o.mu.Unlock()
	switch cause {
	case CloseDisplaced:
		o.edge.closedDisplaced.Add(1)
	case CloseSlow:
		o.edge.closedSlow.Add(1)
	}
	if cause != CloseGone && o.teardown != nil {
		o.teardown()
	}
}

// End closes the outbox if it is not closed and removes it from its
// edge. Call it once, after the session's writer has returned.
func (o *Outbox[T]) End() {
	o.Close(CloseGone)
	o.edge.mu.Lock()
	delete(o.edge.live, o)
	o.edge.mu.Unlock()
	o.edge.ended.Done()
}

// Deliver is the session's deliverer in the SessionTable: it encodes the
// notification (once per batch, through the edge's encoder) and queues
// it unless it is oversize, its channel is mid-subscribe, or its version
// is not above the channel's watermark.
func (o *Outbox[T]) Deliver(n Notification) {
	msg, ok := o.edge.encode(n)
	if !ok {
		o.edge.droppedOversize.Add(1)
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	if _, gated := o.gated[n.Channel]; gated || n.Version <= o.last[n.Channel] {
		return // mid-subscribe (the catch-up covers it), or a duplicate
	}
	o.last[n.Channel] = n.Version
	o.pushNotify(Queued[T]{Msg: msg, Channel: n.Channel, Version: n.Version, notify: true})
	if o.edge.observe != nil && !n.At.IsZero() {
		o.edge.observe(time.Since(n.At))
	}
}

// Control queues a control item. A session whose bound of control items
// is already queued is closed as slow instead.
func (o *Outbox[T]) Control(msg T) {
	o.mu.Lock()
	ok := o.closed || o.pushControl(msg)
	o.mu.Unlock()
	if !ok {
		o.Close(CloseSlow)
	}
}

// pushNotify queues a notify, evicting the oldest queued notify when the
// bound is reached; callers hold o.mu.
func (o *Outbox[T]) pushNotify(q Queued[T]) {
	if o.notifies >= o.edge.queueLen {
		i := slices.IndexFunc(o.queue, func(q Queued[T]) bool { return q.notify })
		o.queue = slices.Delete(o.queue, i, i+1)
		o.notifies--
		o.edge.droppedSlow.Add(1)
	}
	o.queue = append(o.queue, q)
	o.notifies++
	o.edge.notifies.Add(1)
	o.signal()
}

// pushControl queues a control item, reporting false when the bound of
// control items is already queued; callers hold o.mu.
func (o *Outbox[T]) pushControl(msg T) bool {
	if o.controls >= o.edge.queueLen {
		return false
	}
	o.queue = append(o.queue, Queued[T]{Msg: msg})
	o.controls++
	o.signal()
	return true
}

func (o *Outbox[T]) signal() {
	select {
	case o.kick <- struct{}{}:
	default:
	}
}

// subscribe runs call, then — when it succeeds — adds channel to the
// session's channel set and runs catchUp (if set) with the outbox
// locked: what catchUp queues (controlLocked, replayLocked, skipLocked)
// goes out after anything already queued and before any later live
// notify for the channel. With hold set, live delivery on channel is
// held back while call runs, and the watermark keeps the union free of
// duplicates: any live update suppressed meanwhile must be one catchUp
// can find (the SessionTable appends every update to its replay rings
// before any deliverer runs).
func (o *Outbox[T]) subscribe(channel string, hold bool, call func() error, catchUp func()) error {
	if hold {
		o.mu.Lock()
		o.gated[channel] = struct{}{}
		o.mu.Unlock()
	}
	err := call()
	o.mu.Lock()
	delete(o.gated, channel)
	if err == nil {
		if _, tracked := o.last[channel]; !tracked {
			o.last[channel] = 0
		}
		if !o.closed && catchUp != nil {
			catchUp()
		}
	}
	slow := o.overflow
	o.mu.Unlock()
	if slow {
		o.Close(CloseSlow)
	}
	return err
}

// Forget drops a channel from the session: its watermark, and with it
// the channel's place in the lease-refresh set.
func (o *Outbox[T]) Forget(channel string) {
	o.mu.Lock()
	delete(o.last, channel)
	o.mu.Unlock()
}

// Channels returns the session's channel set.
func (o *Outbox[T]) Channels() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	urls := make([]string, 0, len(o.last))
	for url := range o.last {
		urls = append(urls, url)
	}
	return urls
}

// controlLocked queues a control item from a catch-up; a full bound
// closes the session as slow once subscribe unlocks.
func (o *Outbox[T]) controlLocked(msg T) {
	if !o.pushControl(msg) {
		o.overflow = true
	}
}

// replayLocked queues a notification the session missed, unless its
// version is not above the channel's watermark. n.Shared must be set.
func (o *Outbox[T]) replayLocked(n Notification) {
	if n.Version <= o.last[n.Channel] {
		return
	}
	o.last[n.Channel] = n.Version
	msg, ok := o.edge.encode(n)
	if !ok {
		o.edge.droppedOversize.Add(1)
		return
	}
	o.pushNotify(Queued[T]{Msg: msg, Channel: n.Channel, Version: n.Version, notify: true})
}

// skipLocked gives up on a channel's gap: it raises the watermark to
// version and queues msg, a control item telling the client so.
func (o *Outbox[T]) skipLocked(channel string, version uint64, msg T) {
	if version > o.last[channel] {
		o.last[channel] = version
	}
	o.controlLocked(msg)
}

// Drain is every edge's writer loop. It waits for queued items, hands
// each batch to write in queue order, then calls flush once. It returns
// when the outbox is closed and its queue written, or after write or
// flush fails (closing the outbox first).
func (o *Outbox[T]) Drain(write func(Queued[T]) error, flush func() error) {
	var batch []Queued[T]
	for {
		var open bool
		batch, open = o.next(batch)
		for _, q := range batch {
			if err := write(q); err != nil {
				o.Close(CloseGone)
				return
			}
		}
		if len(batch) > 0 {
			if err := flush(); err != nil {
				o.Close(CloseGone)
				return
			}
		}
		if !open {
			return
		}
	}
}

// next waits until items are queued or the outbox closes, then takes
// the whole queue, leaving spare's storage in its place.
func (o *Outbox[T]) next(spare []Queued[T]) (batch []Queued[T], open bool) {
	clear(spare)
	for {
		o.mu.Lock()
		if len(o.queue) > 0 || o.closed {
			batch, o.queue = o.queue, spare[:0]
			o.notifies, o.controls = 0, 0
			open = !o.closed
			o.mu.Unlock()
			return batch, open
		}
		o.mu.Unlock()
		<-o.kick
	}
}

// timedWriter sets the write deadline before every socket write, so a
// buffered batch spilling early is bounded too.
type timedWriter struct{ conn net.Conn }

func (w timedWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
	return w.conn.Write(p)
}
