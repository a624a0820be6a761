package sim

import (
	"math"
	"math/rand"
	"testing"
)

// queueModel drives an Engine and a reference event list through the same
// seeded random operations. The reference is a plain slice searched
// linearly for the least (time, schedule order) — the order the engine
// promises — so any disagreement is an engine bug.
type queueModel struct {
	t   *testing.T
	e   Engine
	rng *rand.Rand
	ref []*modelEvent
	seq int // schedule order, the reference's tie-breaker
	now Time
	ran int // events executed
	// last is the time of the most recently executed event.
	last Time
}

type modelEvent struct {
	m      *queueModel
	at     Time
	seq    int
	daemon bool
}

// delay draws a delay: often zero (same-time ties), often small (dense
// buckets), otherwise with its top bit anywhere from 0 to 62, capped so the
// event time cannot overflow.
func (m *queueModel) delay() Time {
	var d Time
	switch r := m.rng.Intn(8); {
	case r < 2:
		d = 0
	case r < 5:
		d = Time(m.rng.Intn(16))
	default:
		k := m.rng.Intn(63)
		d = Time(1)<<k | Time(m.rng.Int63n(int64(1)<<k))
	}
	if limit := Time(math.MaxInt64) - m.now; d > limit/2 {
		d = limit / 2
	}
	return d
}

// fireModel is the arg-carrying callback of every model event.
func fireModel(a any) { a.(*modelEvent).fire() }

// fire checks that the engine ran the reference's next event, then — with
// some probability — schedules more events from inside the callback.
func (ev *modelEvent) fire() {
	m := ev.m
	want := m.popMin()
	if want != ev {
		m.t.Fatalf("ran event (at %d, seq %d), reference expects (at %d, seq %d)",
			ev.at, ev.seq, want.at, want.seq)
	}
	if now := m.e.Now(); now != ev.at {
		m.t.Fatalf("event at %d ran with Now() = %d", ev.at, now)
	}
	m.now, m.last = ev.at, ev.at
	m.ran++
	for m.rng.Intn(3) == 0 {
		m.schedule(m.now + m.delay())
	}
}

// schedule adds an event at t through a randomly chosen entry point.
func (m *queueModel) schedule(t Time) {
	m.seq++
	ev := &modelEvent{m: m, at: t, seq: m.seq}
	switch m.rng.Intn(6) {
	case 0:
		m.e.At(t, ev.fire)
	case 1:
		m.e.At2(t, fireModel, ev)
	case 2:
		m.e.Schedule(t-m.now, ev.fire)
	case 3:
		m.e.Schedule2(t-m.now, fireModel, ev)
	case 4:
		ev.daemon = true
		m.e.ScheduleDaemon(t-m.now, ev.fire)
	case 5:
		ev.daemon = true
		m.e.ScheduleDaemon2(t-m.now, fireModel, ev)
	}
	m.ref = append(m.ref, ev)
}

// minIndex returns the reference's least (time, schedule order) event.
func (m *queueModel) minIndex() int {
	best := -1
	for i, ev := range m.ref {
		if best < 0 || ev.at < m.ref[best].at ||
			(ev.at == m.ref[best].at && ev.seq < m.ref[best].seq) {
			best = i
		}
	}
	return best
}

func (m *queueModel) popMin() *modelEvent {
	i := m.minIndex()
	if i < 0 {
		m.t.Fatal("engine ran an event the reference does not hold")
	}
	ev := m.ref[i]
	m.ref = append(m.ref[:i], m.ref[i+1:]...)
	return ev
}

func (m *queueModel) nonDaemon() int {
	n := 0
	for _, ev := range m.ref {
		if !ev.daemon {
			n++
		}
	}
	return n
}

// check compares every observable of the engine with the reference.
func (m *queueModel) check(op string) {
	m.t.Helper()
	wantAt, wantOK := Time(0), false
	if i := m.minIndex(); i >= 0 {
		wantAt, wantOK = m.ref[i].at, true
	}
	if at, ok := m.e.NextEventAt(); at != wantAt || ok != wantOK {
		m.t.Fatalf("after %s: NextEventAt() = %d, %v; want %d, %v", op, at, ok, wantAt, wantOK)
	}
	if got := m.e.Pending(); got != len(m.ref) {
		m.t.Fatalf("after %s: Pending() = %d, want %d", op, got, len(m.ref))
	}
	if got, want := m.e.NonDaemonPending(), m.nonDaemon(); got != want {
		m.t.Fatalf("after %s: NonDaemonPending() = %d, want %d", op, got, want)
	}
	if got := m.e.LastEventAt(); got != m.last {
		m.t.Fatalf("after %s: LastEventAt() = %d, want %d", op, got, m.last)
	}
	if got := m.e.Now(); got != m.now {
		m.t.Fatalf("after %s: Now() = %d, want %d", op, got, m.now)
	}
	if got := m.e.Processed(); got != uint64(m.ran) {
		m.t.Fatalf("after %s: Processed() = %d, want %d", op, got, m.ran)
	}
}

// runModel applies ops random operations to a fresh engine and reference.
func runModel(t *testing.T, seed int64, ops int) {
	m := &queueModel{t: t, rng: rand.New(rand.NewSource(seed))}
	for op := 0; op < ops; op++ {
		switch r := m.rng.Intn(16); {
		case r < 6:
			m.schedule(m.now + m.delay())
			m.check("schedule")
		case r < 10:
			pending := len(m.ref)
			if ok := m.e.Step(); ok != (pending > 0) {
				t.Fatalf("Step() = %v with %d reference events pending", ok, pending)
			}
			m.check("Step")
		case r < 13:
			// RunUntil to a target that may fall between events, then
			// the cluster's peek-then-inject pattern: At between Now and
			// the peeked next time, which a peek must leave schedulable.
			target := m.now + m.delay()
			m.e.RunUntil(target)
			if i := m.minIndex(); i >= 0 && m.ref[i].at <= target {
				t.Fatalf("RunUntil(%d) left an event at %d", target, m.ref[i].at)
			}
			m.now = target
			m.check("RunUntil")
			if next, ok := m.e.NextEventAt(); ok {
				for k := m.rng.Intn(4); k > 0; k-- {
					m.schedule(m.now + Time(m.rng.Int63n(int64(next-m.now)+1)))
				}
				m.check("inject")
			}
		case r < 14:
			m.e.Run()
			if n := m.nonDaemon(); n != 0 {
				t.Fatalf("Run returned with %d non-daemon events pending", n)
			}
			m.check("Run")
		default:
			// A same-time burst: ties must run in schedule order.
			t0 := m.now + m.delay()
			for k := m.rng.Intn(5) + 2; k > 0; k-- {
				m.schedule(t0)
			}
			m.check("burst")
		}
	}
	m.e.RunAll()
	if len(m.ref) != 0 {
		t.Fatalf("RunAll left %d reference events", len(m.ref))
	}
	m.check("RunAll")
}
