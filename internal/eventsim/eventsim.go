// Package eventsim provides the discrete-event simulation engine that
// drives Corona's large-scale experiments (paper §5.1).
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which,
// together with seeded random streams, makes every simulation run fully
// deterministic and therefore reproducible in tests and benchmarks.
package eventsim

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"corona/internal/clock"
)

// Epoch is the instant at which simulations begin. The absolute value is
// arbitrary; experiments report time relative to it.
var Epoch = time.Date(2006, 5, 1, 0, 0, 0, 0, time.UTC)

type event struct {
	s       *Sim
	at      time.Time
	seq     uint64 // FIFO tiebreaker for simultaneous events
	fn      func()
	stopped bool
	index   int // heap index, -1 when popped
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Sim is a single-threaded discrete-event simulator. It implements
// clock.Clock, so protocol code written against that interface runs under
// virtual time. Sim is not safe for concurrent use; all callbacks run on
// the caller's goroutine inside Run.
type Sim struct {
	now       time.Time
	events    eventHeap
	seq       uint64
	seed      int64
	processed uint64
	running   bool
}

// New returns a simulator whose clock starts at Epoch. The seed
// parameterizes every random stream derived via RNG.
func New(seed int64) *Sim {
	return &Sim{now: Epoch, seed: seed}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Elapsed returns the virtual time elapsed since Epoch.
func (s *Sim) Elapsed() time.Duration { return s.now.Sub(Epoch) }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled.
func (s *Sim) Pending() int { return len(s.events) }

// Stop cancels the pending event. It reports whether the event had not yet
// fired. A stopped event stays queued, skipped, until it is popped or
// Reset.
func (e *event) Stop() bool {
	if e.stopped || e.index == -1 {
		return false
	}
	e.stopped = true
	return true
}

// Reset schedules the event to fire again after virtual duration d
// (negative is zero), as AfterFunc would: it takes a fresh sequence
// number, so it fires after every event already scheduled for that
// instant, exactly where a new AfterFunc event would. It reports whether
// the event was pending.
func (e *event) Reset(d time.Duration) bool {
	s := e.s
	pending := !e.stopped && e.index != -1
	e.at, e.seq, e.stopped = s.now.Add(max(d, 0)), s.seq, false
	s.seq++
	if e.index == -1 {
		heap.Push(&s.events, e)
	} else {
		heap.Fix(&s.events, e.index)
	}
	return pending
}

// AfterFunc schedules f to run after virtual duration d. Negative durations
// are treated as zero.
func (s *Sim) AfterFunc(d time.Duration, f func()) clock.Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), f)
}

// At schedules f to run at virtual time t. Times in the past fire at the
// current instant, after already-queued events for that instant.
func (s *Sim) At(t time.Time, f func()) clock.Timer {
	if t.Before(s.now) {
		t = s.now
	}
	e := &event{s: s, at: t, seq: s.seq, fn: f}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Sim) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.stopped {
			continue
		}
		s.now = e.at
		s.processed++
		e.fn()
		return true
	}
	return false
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event is after deadline. The clock finishes at deadline if it
// was reached, otherwise at the last event executed.
func (s *Sim) RunUntil(deadline time.Time) {
	if s.running {
		panic("eventsim: RunUntil re-entered from within an event")
	}
	s.running = true
	defer func() { s.running = false }()
	for len(s.events) > 0 {
		next := s.events[0]
		if next.stopped {
			heap.Pop(&s.events)
			continue
		}
		if next.at.After(deadline) {
			break
		}
		heap.Pop(&s.events)
		s.now = next.at
		s.processed++
		next.fn()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

// RunFor executes events for a virtual duration d from the current time.
func (s *Sim) RunFor(d time.Duration) {
	s.RunUntil(s.now.Add(d))
}

// Drain executes events until none remain or limit events have run.
// It panics if limit is exceeded, which catches runaway event loops in
// tests.
func (s *Sim) Drain(limit uint64) {
	start := s.processed
	for s.Step() {
		if s.processed-start > limit {
			panic(fmt.Sprintf("eventsim: Drain exceeded %d events", limit))
		}
	}
}

// RNG returns a deterministic random stream identified by name. Distinct
// names yield independent streams; the same (seed, name) pair always yields
// the same sequence, keeping experiments reproducible while letting
// subsystems draw randomness independently of one another.
func (s *Sim) RNG(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", s.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
