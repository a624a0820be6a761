// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is callback-based: an event is a function scheduled to run at a
// simulated time. Events at equal times run in schedule order (FIFO), which
// together with seeded random number generation makes every simulation run
// exactly reproducible. Shared hardware (a flash device, a network segment)
// is modeled by Server, a single-server FIFO queue; pure delays (RAM access,
// filer service time) use Schedule directly.
//
// # Event queue
//
// The queue is a radix heap over event time (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990), which applies because simulated time never runs
// backwards. base is the last settled time, never after Now. An event at
// time at lives in bucket bits.Len64(at^base) of 64: bucket 0 holds
// exactly the events at base, and every event in bucket b > 0 is earlier
// than every event in any higher bucket. Each bucket is a FIFO list
// threaded through a pointer-free per-slot link array, with the callbacks
// in a parallel slot array and each bucket's earliest time kept beside its
// ends. When bucket 0 is empty, Step settles: the lowest non-empty
// bucket's minimum becomes the new base and the bucket's events move, in
// list order, into the buckets below it. Then Step runs the head of
// bucket 0.
//
// Ties run in schedule order by construction, with no sequence counter.
// Equal times always share a bucket. A push appends to its bucket's tail,
// and a settle walks one bucket in order into lower buckets that are all
// empty at that moment, so every bucket stays in schedule order and
// bucket 0 pops in schedule order.
//
// Peeks (NextEventAt, RunUntil's stop test) read a bucket's minimum and
// never move base: a caller may peek and then schedule an event between
// Now and the peeked time, as a sharded run does when it injects barrier
// deliveries. Only Step settles, and it runs the settled minimum at once,
// so base never stays ahead of Now.
//
// # Allocation behavior
//
// Pushing an event takes a recycled slot from a free list threaded through
// the same links; no event is boxed and nothing is allocated per push.
// After the first Run phase reaches its high-water mark of pending events,
// steady-state Schedule/Step cycles allocate nothing, across as many
// Run/RunUntil phases as the caller interleaves.
//
// Hot callers that would otherwise allocate a closure per event can use the
// arg-carrying forms (Schedule2, At2, ScheduleDaemon2): the callback is a
// static func(any) and the argument rides in the event's slot. Passing
// a pointer (or any pointer-shaped value) as the argument does not allocate.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulated timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String formats the time in microseconds, the paper's reporting unit.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
}

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// link is one queue slot's pointer-free half: the event's time, the next
// slot in its bucket's FIFO list (or in the free list once the slot is
// recycled), and the daemon flag, which fits in the padding. A list's
// last next is stale: walks stop at the bucket's tail, and the free list
// is as long as the slots outnumber the pending events.
type link struct {
	at     Time
	next   int32
	daemon bool
}

// payload is one queue slot's callback half, kept apart from the links so
// that settling a bucket walks only pointer-free memory. The closure form
// rides as the argument of callClosure, so one call shape serves both.
type payload struct {
	fn  func(any)
	arg any
}

// callClosure runs a closure-form event: its func() is the argument. A
// func value is pointer-shaped, so storing it in an any does not allocate.
func callClosure(a any) { a.(func())() }

// noop is the shared placeholder completion scheduled when a caller has no
// callback of its own but the engine must still see a drain-blocking event.
func noop() {}

// noopArg is noop's arg-carrying twin, substituted when an arg-carrying
// schedule call passes a nil callback: the event still occupies the engine
// (a drained engine means idle hardware) and nothing is allocated.
func noopArg(any) {}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now  Time
	last Time

	// The event queue: a radix heap over event time (see the package
	// comment). An event at time at lives in bucket bits.Len64(at^base);
	// bit b of mask is set when bucket b is non-empty, and then head[b]
	// and tail[b] are the ends of its FIFO list and min[b] its earliest
	// time. links and slots are parallel per-slot arrays; the
	// len(links)-pending free slots form a list from free.
	base       Time
	mask       uint64
	head, tail [64]int32
	min        [64]Time
	links      []link
	slots      []payload
	free       int32
	pending    int

	processed uint64
	nonDaemon int
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, not-yet-run events.
func (e *Engine) Pending() int { return e.pending }

// NonDaemonPending returns the number of scheduled non-daemon events. A
// zero count with Pending() > 0 means only background daemons (ticker
// rearms) remain — the condition under which Run returns and under which
// a sharded run's drain phase may stop.
func (e *Engine) NonDaemonPending() int { return e.nonDaemon }

// NextEventAt returns the timestamp of the earliest scheduled event, or
// false when the queue is empty. Sharded runs use it to bound how far a
// quiet shard may be fast-forwarded. It is a pure peek: it never moves the
// queue's base, so the caller may still schedule events between Now and
// the returned time.
func (e *Engine) NextEventAt() (Time, bool) {
	if e.mask == 0 {
		return 0, false
	}
	if e.mask&1 != 0 {
		return e.base, true
	}
	return e.min[bits.TrailingZeros64(e.mask)], true
}

// LastEventAt returns the timestamp of the most recently executed event.
// Unlike Now, it is unaffected by RunUntil's clock advance past the final
// event, so it reports the true completion time of the work done so far.
func (e *Engine) LastEventAt() Time { return e.last }

// Schedule runs fn after delay d. A negative delay panics: the simulator
// never travels backwards in time.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Schedule2 is the allocation-free form of Schedule: fn is expected to be a
// static (package-level or pre-bound) func(any) and arg its state. It runs
// fn(arg) after delay d.
func (e *Engine) Schedule2(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.at2(e.now+d, fn, arg, false)
}

// ScheduleDaemon is Schedule for daemon events: background activity (e.g.
// a periodic syncer's next tick) that should not by itself keep Run alive.
// Run returns when only daemon events remain.
func (e *Engine) ScheduleDaemon(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.push(e.now+d, callClosure, fn, true)
}

// ScheduleDaemon2 is the arg-carrying form of ScheduleDaemon.
func (e *Engine) ScheduleDaemon2(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.at2(e.now+d, fn, arg, true)
}

// At runs fn at absolute time t, which must not be before Now.
func (e *Engine) At(t Time, fn func()) {
	e.push(t, callClosure, fn, false)
}

// At2 is the arg-carrying form of At.
func (e *Engine) At2(t Time, fn func(any), arg any) {
	e.at2(t, fn, arg, false)
}

func (e *Engine) at2(t Time, fn func(any), arg any, daemon bool) {
	if fn == nil {
		// One shared placeholder serves every callback-less event; callers
		// need no nil guards of their own.
		fn, arg = noopArg, nil
	}
	e.push(t, fn, arg, daemon)
}

// push enqueues fn(arg) at time t: it takes a free slot (or grows the
// slot arrays) and appends the slot to the tail of t's bucket.
func (e *Engine) push(t Time, fn func(any), arg any, daemon bool) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	var i int32
	if e.pending < len(e.links) {
		i = e.free
		e.free = e.links[i].next
	} else {
		i = int32(len(e.links))
		e.links = append(e.links, link{})
		e.slots = append(e.slots, payload{})
	}
	e.pending++
	if !daemon {
		e.nonDaemon++
	}
	e.links[i] = link{at: t, daemon: daemon}
	e.slots[i] = payload{fn: fn, arg: arg}
	e.append(bits.Len64(uint64(t^e.base)), i, t)
}

// append links slot i, holding an event at t, onto the tail of bucket b.
func (e *Engine) append(b int, i int32, t Time) {
	if e.mask&(1<<b) == 0 {
		e.mask |= 1 << b
		e.head[b] = i
		e.min[b] = t
	} else {
		e.links[e.tail[b]].next = i
		if t < e.min[b] {
			e.min[b] = t
		}
	}
	e.tail[b] = i
}

// settle makes the minimum of bucket b (the lowest non-empty bucket) the
// new base and relinks b's events, in list order, into the buckets below
// it — all empty, so each keeps schedule order. Afterwards bucket 0 holds
// exactly the events at the new base.
func (e *Engine) settle(b int) {
	m := e.min[b]
	e.base = m
	e.mask &^= 1 << b
	i, last := e.head[b], e.tail[b]
	if i == last {
		// A lone event is the minimum: it moves straight to bucket 0.
		e.mask |= 1
		e.head[0], e.tail[0], e.min[0] = i, i, m
		return
	}
	for {
		at, next := e.links[i].at, e.links[i].next
		e.append(bits.Len64(uint64(at^m)), i, at)
		if i == last {
			return
		}
		i = next
	}
}

// Step runs the next event, advancing the clock. It returns false when no
// events remain.
func (e *Engine) Step() bool {
	if e.mask&1 == 0 {
		if e.mask == 0 {
			return false
		}
		e.settle(bits.TrailingZeros64(e.mask))
	}
	// Run the head of bucket 0, the earliest event, and recycle its slot.
	i := e.head[0]
	l := &e.links[i]
	if i == e.tail[0] {
		e.mask &^= 1
	} else {
		e.head[0] = l.next
	}
	daemon := l.daemon
	l.next = e.free
	e.free = i
	p := e.slots[i]
	e.slots[i] = payload{} // drop callback and arg references for the GC
	e.pending--
	e.now = e.base
	e.last = e.base
	e.processed++
	if !daemon {
		e.nonDaemon--
	}
	p.fn(p.arg)
	return true
}

// Run executes events until only daemon events (if any) remain.
func (e *Engine) Run() {
	for e.nonDaemon > 0 && e.Step() {
	}
}

// RunAll executes events until none remain, daemons included. Callers must
// ensure daemon sources (tickers) have been stopped.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for {
		if at, ok := e.NextEventAt(); !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunWhile executes events while cond() holds and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}
