package flashsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// This file executes a scenario on the sharded cluster (Config.Shards >= 1).
// Everything the sequential scenario runner does between engine runs —
// workload overrides, trace pumping, fault events, telemetry sampling —
// happens here between epochs, at barrier times that are shard-count
// invariant, so a scenario result is bit-identical for every shard count
// (locked by TestScenarioShardCountInvariance).
//
// The trace reaches the per-host drivers differently than in a sequential
// run: the shared generator cannot be consumed concurrently by the shards,
// so the coordinator draws ops from it between epochs — one bounded batch
// per block-bounded phase, barrier-timed chunks for time-bounded phases —
// and splits them into per-host queues (trace.QueueSource), remapping ops
// of detached hosts exactly like the sequential driver does. Three
// deliberate, documented semantic differences from the sequential path
// follow (see docs/SCENARIOS.md):
//
//   - Phases end fully drained: background writebacks complete before the
//     next phase starts (sequentially they may straddle the boundary).
//   - A time-bounded phase cuts consumption at the first barrier at or
//     after its deadline and discards the ops it pre-generated but never
//     dispatched; the generator stream position therefore differs from a
//     sequential run's after such a phase.
//   - Telemetry samples are taken at barriers forced onto the sampling
//     grid, so a sample reflects exactly the events up to its timestamp.

// feedChunkBlocks returns the coordinator's trace top-up quantum for
// time-bounded phases: enough to keep every thread's queue full across a
// barrier interval, scaled conservatively so mid-epoch dry spells (hosts
// idling until the next top-up barrier) stay rare.
func feedChunkBlocks(cfg Config) int64 {
	meanIO := cfg.Workload.MeanIOBlocks
	if meanIO < 1 {
		meanIO = 1
	}
	chunk := int64(float64(cfg.Hosts*cfg.ThreadsPerHost) * 64 * meanIO)
	if chunk < 4096 {
		chunk = 4096
	}
	return chunk
}

// shardedScenarioRun carries the coordinator-side state of one run.
type shardedScenarioRun struct {
	cfg Config
	sc  *Scenario
	cl  *core.Cluster
	gen *tracegen.Generator

	feeds    []*trace.QueueSource
	attached []bool
	active   []int // indices of attached hosts, ascending
	fed      int64 // blocks pushed into the feeds

	period   sim.Time
	nextTick sim.Time
	ts       *stats.TimeSeries
	row      []float64
	prev     aggSnap
	cur      aggSnap

	// Live-run surfaces (zero-valued on batch runs; see stream.go).
	hooks    ScenarioHooks
	ctl      *RunController
	res      *ScenarioResult
	curPhase int
	inEvent  bool // an event's own drain is advancing the cluster
}

// runScenarioSharded executes a validated, cloned scenario on the cluster.
// hooks and ctl are the streaming surfaces (stream.go); batch runs pass
// zero values and take exactly the batch path.
func runScenarioSharded(cfg Config, sc *Scenario, period sim.Time, hooks ScenarioHooks, ctl *RunController) (*ScenarioResult, error) {
	gen, err := scenarioGenerator(cfg)
	if err != nil {
		return nil, err
	}

	feeds := make([]*trace.QueueSource, cfg.Hosts)
	sources := make([]trace.Source, cfg.Hosts)
	for i := range feeds {
		feeds[i] = trace.NewQueueSource()
		sources[i] = feeds[i]
	}
	// Warmup is all zeros: scenario runs collect from the first block.
	// Scenario runs pin the classic fixed-lookahead barrier grid: phase
	// feeds, fault events and telemetry samples anchor to barrier times,
	// so the grid is part of the scenario golden surface and must not
	// shift under the adaptive schedule.
	var tr *obs.Tracer
	if cfg.TraceSample > 0 {
		tr = obs.NewTracer(cfg.TraceSample)
	}
	spec := clusterSpec(cfg, sources, make([]int64, cfg.Hosts), tr)
	spec.FixedLookahead = true
	cl, err := core.NewCluster(spec)
	if err != nil {
		return nil, err
	}

	res := &ScenarioResult{Scenario: sc.Name}
	r := &shardedScenarioRun{
		cfg:      cfg,
		sc:       sc,
		cl:       cl,
		gen:      gen,
		feeds:    feeds,
		attached: make([]bool, cfg.Hosts),
		active:   make([]int, cfg.Hosts),
		period:   period,
		nextTick: period,
		ts:       stats.NewTimeSeries("scenario "+sc.Name, telemetryColumns...),
		row:      make([]float64, len(telemetryColumns)),
		hooks:    hooks,
		ctl:      ctl,
		res:      res,
	}
	for i := range r.attached {
		r.attached[i] = true
		r.active[i] = i
	}

	cl.Start()
	defer cl.Close()
	cl.StartDrivers() // zero warmup: collection is on from the first block

	var phaseStart, phaseEnd aggSnap
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		r.curPhase = pi
		if err := applyOverrides(gen, ph); err != nil {
			return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
		}
		for _, ev := range ph.Events {
			er, err := r.executeEvent(pi, ev)
			if err != nil {
				return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
			}
			if err := verifyResidency(cfg, "after "+string(ev.Kind), cl.CheckResidency); err != nil {
				return nil, err
			}
			res.Events = append(res.Events, er)
			if r.hooks.Event != nil {
				r.hooks.Event(er)
			}
		}
		start := cl.Now()
		r.snapshot(&phaseStart)
		if blocks := phaseBlocks(cfg, ph); blocks > 0 {
			if err := r.runBlockPhase(blocks); err != nil {
				return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
			}
		} else {
			deadline := start + sim.Time(ph.Seconds*float64(sim.Second))
			if err := r.runTimedPhase(deadline); err != nil {
				return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
			}
		}
		r.snapshot(&phaseEnd)
		pr := phaseResult(ph.Name, start, cl.Now(), &phaseStart, &phaseEnd)
		res.Phases = append(res.Phases, pr)
		if r.hooks.Phase != nil {
			r.hooks.Phase(pr)
		}
	}

	// Wind down, mirroring the sequential order: sampling stops, the
	// syncers halt, the remaining work drains, and one final sample closes
	// the series. Phases drain fully at the barrier, so this is usually a
	// no-op epoch.
	cl.StopSyncers()
	cl.Advance(0)
	r.sample(cl.Now())
	if err := verifyResidency(cfg, "at end of run", cl.CheckResidency); err != nil {
		return nil, err
	}

	res.Telemetry = r.ts
	res.BlocksIssued = r.blocksIssued()
	res.SimulatedSeconds = cl.Now().Seconds()
	res.EngineEvents = cl.Events()
	res.Epochs = cl.Epochs()
	res.BarrierMessages = cl.BarrierMessages()
	var fin aggSnap
	r.snapshot(&fin)
	fillScenarioTotals(res, &fin)
	fillScenarioFilerStats(res, cl.Filer())
	if tr != nil {
		res.Trace = tr.Spans()
	}
	res.WallProfile = cl.WallProfile()
	return res, nil
}

// blocksIssued sums the per-host drivers' issued blocks.
func (r *shardedScenarioRun) blocksIssued() uint64 {
	var n uint64
	for _, d := range r.cl.Drivers() {
		n += d.BlocksIssued()
	}
	return n
}

// consumed sums the blocks the drivers have taken from their feeds.
func (r *shardedScenarioRun) consumed() int64 {
	var n int64
	for _, d := range r.cl.Drivers() {
		n += d.BlocksConsumed()
	}
	return n
}

// inflight sums the drivers' executing ops (the telemetry queue-depth
// signal).
func (r *shardedScenarioRun) inflight() int {
	n := 0
	for _, d := range r.cl.Drivers() {
		n += d.OpsInFlight()
	}
	return n
}

func (r *shardedScenarioRun) snapshot(out *aggSnap) {
	snapshotHosts(r.cl.Hosts(), r.blocksIssued(), out)
}

// sample appends one telemetry row at time at, with interval deltas since
// the previous sample — the barrier-driven analogue of the sequential
// stats.Sampler tick.
func (r *shardedScenarioRun) sample(at sim.Time) {
	r.snapshot(&r.cur)
	cur, prev := &r.cur, &r.prev
	r.row[0] = meanMicros(cur.readSum-prev.readSum, cur.readCount-prev.readCount)
	r.row[1] = meanMicros(cur.writeSum-prev.writeSum, cur.writeCount-prev.writeCount)
	r.row[2] = rate(cur.ramHits-prev.ramHits, cur.ramMisses-prev.ramMisses)
	r.row[3] = rate(cur.flashHits-prev.flashHits, cur.flashMisses-prev.flashMisses)
	r.row[4] = float64(cur.blocksIssued - prev.blocksIssued)
	r.row[5] = float64(r.inflight())
	r.row[6] = float64(cur.dirty)
	r.prev = r.cur
	r.ts.Append(at.Seconds(), r.row)
	if r.hooks.Sample != nil {
		r.hooks.Sample(at.Seconds(), r.row)
	}
}

// feed draws at least blocks trace blocks from the shared generator (the
// last op may overshoot, like the sequential pump), splits them into the
// per-host queues — remapping ops of detached hosts onto the attached
// ones with the sequential driver's formula — and wakes the drivers.
func (r *shardedScenarioRun) feed(blocks int64) {
	var pushed int64
	for pushed < blocks {
		op, ok := r.gen.Next()
		if !ok {
			break
		}
		hi := int(op.Host) % r.cfg.Hosts
		if !r.attached[hi] {
			hi = r.active[hi%len(r.active)]
		}
		r.feeds[hi].Push(op)
		pushed += int64(op.Count)
	}
	r.fed += pushed
	for _, d := range r.cl.Drivers() {
		d.PumpMore()
	}
}

// driveToIdle advances the cluster until it is quiescent, sampling at
// every telemetry tick on the way and servicing the run controller at
// every barrier. The only error source is the controller: a batch run
// never fails here.
func (r *shardedScenarioRun) driveToIdle() error {
	for !r.cl.Advance(r.nextTick) {
		r.sample(r.nextTick)
		r.nextTick += r.period
		if err := r.checkpoint(); err != nil {
			return err
		}
	}
	return r.checkpoint()
}

// runBlockPhase feeds the phase's whole block budget and drains it.
func (r *shardedScenarioRun) runBlockPhase(blocks int64) error {
	r.feed(blocks)
	if err := r.driveToIdle(); err != nil {
		return err
	}
	for i, d := range r.cl.Drivers() {
		if !d.Done() {
			return fmt.Errorf("host %d driver stalled with phase trace outstanding", i)
		}
	}
	return nil
}

// runTimedPhase feeds barrier-timed chunks until the deadline, then cuts
// consumption (discarding undispatched feed) and drains.
func (r *shardedScenarioRun) runTimedPhase(deadline sim.Time) error {
	chunk := feedChunkBlocks(r.cfg)
	for {
		if buffered := r.fed - r.consumed(); buffered < chunk/2 {
			r.feed(chunk - buffered)
		}
		pause := r.nextTick
		if deadline < pause {
			pause = deadline
		}
		if r.cl.Advance(pause) {
			// Quiescent before the deadline: the feeds ran dry mid-epoch.
			// Top up and continue; simulated time does not advance while
			// the cluster is idle.
			if err := r.checkpoint(); err != nil {
				return err
			}
			if r.cl.Now() >= deadline {
				break
			}
			continue
		}
		if pause == r.nextTick {
			r.sample(r.nextTick)
			r.nextTick += r.period
		}
		if err := r.checkpoint(); err != nil {
			return err
		}
		if pause >= deadline {
			break
		}
	}
	// Deadline reached: discard what was generated but never dispatched
	// and drain the work in flight.
	for _, q := range r.feeds {
		r.fed -= q.DropPending()
	}
	return r.driveToIdle()
}

// executeEvent runs one scripted fault with every shard quiescent (phase
// boundary). Recovery scans and flush writebacks drain through the epoch
// barrier before the phase begins.
func (r *shardedScenarioRun) executeEvent(phase int, ev ScenarioEvent) (EventResult, error) {
	// The event's own drains advance the cluster; mask the controller
	// checkpoint so injections never execute inside another event.
	r.inEvent = true
	defer func() { r.inEvent = false }()
	cl := r.cl
	h := cl.Hosts()[ev.Host]
	er := EventResult{Phase: phase, Kind: string(ev.Kind), Host: ev.Host}
	start := cl.Now()
	switch ev.Kind {
	case scenario.EventCrash:
		before := h.ResidentBlocks()
		h.Crash()
		if r.cfg.PersistentFlash && r.cfg.Arch != Unified {
			// The flash cache survived; scan its metadata and flush the
			// blocks that were dirty at the crash — the recovery phase the
			// paper declined to simulate (§7.8).
			done := false
			er.Flushed = h.Recover(func() { done = true })
			if err := r.driveToIdle(); err != nil {
				return er, err
			}
			if !done {
				return er, fmt.Errorf("crash recovery did not complete")
			}
		}
		er.Dropped = before - h.ResidentBlocks()
	case scenario.EventFlush:
		before := h.ResidentBlocks()
		done := false
		er.Flushed = h.Flush(ev.Fraction, func() { done = true })
		if err := r.driveToIdle(); err != nil {
			return er, err
		}
		if !done {
			return er, fmt.Errorf("flush did not complete")
		}
		er.Dropped = before - h.ResidentBlocks()
	case scenario.EventLeave:
		n := 0
		for _, a := range r.attached {
			if a {
				n++
			}
		}
		if n == 1 {
			return er, fmt.Errorf("cannot detach the last attached host")
		}
		before := h.ResidentBlocks()
		done := false
		er.Flushed = h.Flush(1, func() { done = true })
		if err := r.driveToIdle(); err != nil {
			return er, err
		}
		if !done {
			return er, fmt.Errorf("leave flush did not complete")
		}
		er.Dropped = before - h.ResidentBlocks()
		r.setAttached(ev.Host, false)
	case scenario.EventJoin:
		r.setAttached(ev.Host, true)
	case scenario.EventFilerCrash:
		er.Partition, er.Replica = ev.Partition, ev.Replica
		if err := cl.Filer().CrashReplica(ev.Partition, ev.Replica); err != nil {
			return er, err
		}
	case scenario.EventFilerRecover:
		er.Partition, er.Replica = ev.Partition, ev.Replica
		blocks, source, err := cl.Filer().RecoverReplica(ev.Partition, ev.Replica)
		if err != nil {
			return er, err
		}
		er.Resynced, er.ResyncSource = blocks, source
	default:
		return er, fmt.Errorf("unknown event kind %q", ev.Kind)
	}
	er.Seconds = (cl.Now() - start).Seconds()
	return er, nil
}

// setAttached updates the churn map the feed-time remap consults (the
// sharded analogue of Driver.SetAttached).
func (r *shardedScenarioRun) setAttached(host int, attached bool) {
	if r.attached[host] == attached {
		return
	}
	r.attached[host] = attached
	r.active = r.active[:0]
	for i, a := range r.attached {
		if a {
			r.active = append(r.active, i)
		}
	}
}
