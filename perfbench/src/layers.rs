//! Outside-in host-time accounting.
//!
//! The engine has no host-time profiler, so the benchmark times the
//! calls the driver already makes into four trait objects:
//!
//! * [`TimedInjector`] wraps the node manager's [`FailureInjector`]
//!   (market and node-manager simulation);
//! * [`TimedHooks`] wraps the checkpoint policy's [`CheckpointHooks`];
//!   `poll` marks the top of each scheduler-loop iteration;
//! * [`TimedBackend`] wraps the execution [`Backend`]; the first
//!   `on_task_admitted` after a wave starts marks the end of
//!   `compute_wave`;
//! * [`TimedSink`] wraps the trace [`EventSink`]; `WaveStarted` marks the
//!   start of compute and `ActionStarted`/`ActionFinished` bracket an
//!   action.
//!
//! Between two boundaries the driver thread is in one *phase* (plan,
//! wave, admit, commit, or outside every action). A call into a wrapped
//! object is a *nested* layer. Every nanosecond between [`Brackets::start`]
//! and [`Brackets::finish`] is charged to exactly one layer: the
//! innermost open nested call, else the current phase. A layer's self
//! time is therefore its span minus the nested calls inside it, and the
//! self times sum to the wall time by construction.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use flint::engine::{
    Backend, BackendKind, CheckpointDirective, CheckpointHooks, Event, EventKind, EventSink,
    FailureInjector, InvocationBill, InvocationStart, LineageView, RddId, ShuffleTransport,
    WorkerEvent, WorkerId,
};
use flint::simtime::{SimDuration, SimTime};

/// Where the driver thread's host time goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Outside every action: workload code building lineage and
    /// consuming results.
    Outside,
    /// Scheduler planning: from the loop-top poll to the wave start (or,
    /// when no wave starts, to the injector query).
    Plan,
    /// `compute_wave`: from `WaveStarted` to the first admission.
    Wave,
    /// Admission of the wave's tasks and checkpoint jobs.
    Admit,
    /// Advancing the clock and committing finished tasks.
    Commit,
    /// Inside `CheckpointHooks` calls (Flint's checkpoint policy).
    CkptPolicy,
    /// Inside `FailureInjector` calls (node manager and market).
    NodeManager,
    /// Inside `run_mc` (Monte-Carlo market simulation, no engine).
    Mc,
    /// Inside the trace sink (JSONL encoding).
    TraceEncode,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Outside,
        Layer::Plan,
        Layer::Wave,
        Layer::Admit,
        Layer::Commit,
        Layer::CkptPolicy,
        Layer::NodeManager,
        Layer::Mc,
        Layer::TraceEncode,
    ];
}

/// Counts taken from the event stream at the sink boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventCounts {
    /// Every event the sink saw.
    pub events: u64,
    /// `TaskFinished`: tasks committed.
    pub tasks_committed: u64,
    /// `CacheInsert`.
    pub block_inserts: u64,
    /// `CacheSpill`.
    pub block_spills: u64,
    /// `CacheEvict`.
    pub block_evicts: u64,
    /// `CheckpointWritten`.
    pub checkpoint_writes: u64,
    /// Σ `CheckpointWritten.vbytes`.
    pub checkpoint_write_bytes: u64,
    /// `Restored`.
    pub restores: u64,
    /// Σ `Recomputed.millis` (virtual).
    pub recompute_ms: u64,
    /// `HazardRefit`.
    pub hazard_refits: u64,
}

/// The bracket state machine; see the module docs.
#[derive(Debug)]
pub struct Brackets {
    phase: Layer,
    nested: Vec<Layer>,
    last: Instant,
    started: Instant,
    wall_ns: u64,
    self_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    iter_open: bool,
    iter_had_wave: bool,
    /// Calls to `CheckpointHooks::poll`: one per scheduler iteration.
    pub loop_iters: u64,
    /// Iterations that started no wave.
    pub idle_iters: u64,
    /// `WaveStarted` events.
    pub waves: u64,
    /// Σ `WaveStarted.tasks`.
    pub wave_tasks: u64,
    /// Event-stream counts.
    pub counts: EventCounts,
}

impl Default for Brackets {
    fn default() -> Self {
        let now = Instant::now();
        Brackets {
            phase: Layer::Outside,
            nested: Vec::new(),
            last: now,
            started: now,
            wall_ns: 0,
            self_ns: [0; Layer::ALL.len()],
            calls: [0; Layer::ALL.len()],
            iter_open: false,
            iter_had_wave: false,
            loop_iters: 0,
            idle_iters: 0,
            waves: 0,
            wave_tasks: 0,
            counts: EventCounts::default(),
        }
    }
}

impl Brackets {
    /// Clears every accumulator and opens the measured window in `phase`
    /// (`Outside` for an engine job, `Mc` for a Monte-Carlo call).
    pub fn start(&mut self, phase: Layer) {
        *self = Brackets {
            phase,
            ..Brackets::default()
        };
    }

    /// Closes the measured window.
    pub fn finish(&mut self) {
        let now = Instant::now();
        self.charge(now);
        self.close_iteration();
        self.wall_ns = (now - self.started).as_nanos() as u64;
    }

    /// Wall time of the measured window, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Self time of `layer`, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e9
    }

    /// Nested calls into `layer`'s trait object.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Share of the wall time spent inside a named layer (everything but
    /// [`Layer::Outside`]).
    pub fn coverage_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let covered: u64 = Layer::ALL
            .iter()
            .filter(|l| **l != Layer::Outside)
            .map(|l| self.self_ns[*l as usize])
            .sum();
        covered as f64 / self.wall_ns as f64
    }

    fn charge(&mut self, now: Instant) {
        let top = *self.nested.last().unwrap_or(&self.phase);
        self.self_ns[top as usize] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }

    /// Moves the driver thread to `phase` at a boundary.
    fn switch(&mut self, phase: Layer) {
        self.charge(Instant::now());
        self.phase = phase;
    }

    fn enter(&mut self, layer: Layer) {
        self.charge(Instant::now());
        self.nested.push(layer);
        self.calls[layer as usize] += 1;
    }

    fn exit(&mut self) {
        self.charge(Instant::now());
        self.nested.pop();
    }

    fn close_iteration(&mut self) {
        if self.iter_open && !self.iter_had_wave {
            self.idle_iters += 1;
        }
        self.iter_open = false;
    }

    /// Top of a scheduler-loop iteration (`CheckpointHooks::poll`).
    fn loop_top(&mut self) {
        self.close_iteration();
        self.iter_open = true;
        self.iter_had_wave = false;
        self.loop_iters += 1;
    }

    /// The injector is queried for its next event once the iteration's
    /// planning and admission are done; what follows is commit work.
    fn injector_query(&mut self) {
        if matches!(self.phase, Layer::Plan | Layer::Wave | Layer::Admit) {
            self.switch(Layer::Commit);
        }
    }

    /// A task was admitted: the first one after `WaveStarted` ends the
    /// wave's compute.
    fn admitted(&mut self) {
        if self.phase == Layer::Wave {
            self.switch(Layer::Admit);
        }
    }

    /// Phase boundaries and counters carried by the event stream.
    fn observe(&mut self, kind: &EventKind) {
        let c = &mut self.counts;
        c.events += 1;
        match kind {
            EventKind::ActionStarted { .. } => self.switch(Layer::Plan),
            EventKind::ActionFinished { .. } => self.switch(Layer::Outside),
            EventKind::WaveStarted { tasks } => {
                self.waves += 1;
                self.wave_tasks += tasks;
                self.iter_had_wave = true;
                self.switch(Layer::Wave);
            }
            EventKind::TaskFinished { .. } => c.tasks_committed += 1,
            EventKind::CacheInsert { .. } => c.block_inserts += 1,
            EventKind::CacheSpill { .. } => c.block_spills += 1,
            EventKind::CacheEvict { .. } => c.block_evicts += 1,
            EventKind::CheckpointWritten { vbytes, .. } => {
                c.checkpoint_writes += 1;
                c.checkpoint_write_bytes += vbytes;
            }
            EventKind::Restored { .. } => c.restores += 1,
            EventKind::Recomputed { millis, .. } => c.recompute_ms += millis,
            EventKind::HazardRefit { .. } => c.hazard_refits += 1,
            _ => {}
        }
    }
}

/// The bracket state shared by every wrapper of one traced session.
#[derive(Debug, Clone, Default)]
pub struct Shared(Arc<Mutex<Brackets>>);

impl Shared {
    /// Locks the state. The lock is never held across a call into a
    /// wrapped object, so nested emits cannot deadlock.
    pub fn lock(&self) -> MutexGuard<'_, Brackets> {
        self.0.lock().expect("bracket state poisoned")
    }

    fn nested<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.lock().enter(layer);
        let r = f();
        self.lock().exit();
        r
    }
}

/// Times a [`FailureInjector`] (the node manager and its market).
pub struct TimedInjector<I> {
    inner: I,
    shared: Shared,
}

impl<I> TimedInjector<I> {
    /// Wraps `inner`.
    pub fn new(inner: I, shared: Shared) -> Self {
        TimedInjector { inner, shared }
    }
}

impl<I: FailureInjector> FailureInjector for TimedInjector<I> {
    fn events(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        let inner = &mut self.inner;
        self.shared
            .nested(Layer::NodeManager, || inner.events(from, to))
    }

    fn next_event_after(&mut self, t: SimTime) -> Option<SimTime> {
        self.shared.lock().injector_query();
        let inner = &mut self.inner;
        self.shared
            .nested(Layer::NodeManager, || inner.next_event_after(t))
    }

    fn fault_notes(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, String, String)> {
        let inner = &mut self.inner;
        self.shared
            .nested(Layer::NodeManager, || inner.fault_notes(from, to))
    }
}

/// Times a [`CheckpointHooks`] policy; `poll` marks each loop top.
pub struct TimedHooks<H> {
    inner: H,
    shared: Shared,
}

impl<H> TimedHooks<H> {
    /// Wraps `inner`.
    pub fn new(inner: H, shared: Shared) -> Self {
        TimedHooks { inner, shared }
    }
}

impl<H: CheckpointHooks> CheckpointHooks for TimedHooks<H> {
    fn on_rdd_materialized(
        &mut self,
        view: &LineageView<'_>,
        events: &mut dyn EventSink,
        rdd: RddId,
        now: SimTime,
    ) -> Vec<CheckpointDirective> {
        let inner = &mut self.inner;
        self.shared.nested(Layer::CkptPolicy, || {
            inner.on_rdd_materialized(view, events, rdd, now)
        })
    }

    fn poll(
        &mut self,
        view: &LineageView<'_>,
        events: &mut dyn EventSink,
        now: SimTime,
    ) -> Vec<CheckpointDirective> {
        self.shared.lock().loop_top();
        let inner = &mut self.inner;
        let directives = self
            .shared
            .nested(Layer::CkptPolicy, || inner.poll(view, events, now));
        self.shared.lock().switch(Layer::Plan);
        directives
    }

    fn on_checkpoint_written(
        &mut self,
        rdd: RddId,
        part: u32,
        vbytes: u64,
        wall: SimDuration,
        now: SimTime,
    ) {
        let inner = &mut self.inner;
        self.shared.nested(Layer::CkptPolicy, || {
            inner.on_checkpoint_written(rdd, part, vbytes, wall, now)
        })
    }

    fn on_warning(&mut self, ext_id: u64, now: SimTime) {
        let inner = &mut self.inner;
        self.shared
            .nested(Layer::CkptPolicy, || inner.on_warning(ext_id, now))
    }

    fn on_revocation(&mut self, ext_id: u64, now: SimTime) {
        let inner = &mut self.inner;
        self.shared
            .nested(Layer::CkptPolicy, || inner.on_revocation(ext_id, now))
    }
}

/// Delegates a [`Backend`]; an admission marks the end of compute.
pub struct TimedBackend<B> {
    inner: B,
    shared: Shared,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B, shared: Shared) -> Self {
        TimedBackend { inner, shared }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn shuffle_transport(&self) -> ShuffleTransport {
        self.inner.shuffle_transport()
    }

    fn on_task_admitted(&mut self, worker: WorkerId, start: SimTime) -> Option<InvocationStart> {
        self.shared.lock().admitted();
        self.inner.on_task_admitted(worker, start)
    }

    fn on_task_committed(
        &mut self,
        invocation: u64,
        worker: WorkerId,
        duration: SimDuration,
        now: SimTime,
    ) -> Option<InvocationBill> {
        self.inner
            .on_task_committed(invocation, worker, duration, now)
    }

    fn compute_cost(&self) -> f64 {
        self.inner.compute_cost()
    }

    fn invocations(&self) -> u64 {
        self.inner.invocations()
    }

    fn invocations_billed(&self) -> u64 {
        self.inner.invocations_billed()
    }

    fn billed_gb_seconds(&self) -> f64 {
        self.inner.billed_gb_seconds()
    }

    fn cold_starts(&self) -> u64 {
        self.inner.cold_starts()
    }
}

/// Times an [`EventSink`] and reads phase boundaries off the stream.
pub struct TimedSink<S> {
    inner: S,
    shared: Shared,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, shared: Shared) -> Self {
        TimedSink { inner, shared }
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn emit(&mut self, event: &Event) {
        {
            let mut b = self.shared.lock();
            b.observe(&event.kind);
            b.enter(Layer::TraceEncode);
        }
        self.inner.emit(event);
        self.shared.lock().exit();
    }

    fn flush(&mut self) {
        let inner = &mut self.inner;
        self.shared.nested(Layer::TraceEncode, || inner.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    /// Spins for `ms` milliseconds. Every phase below spins a distinct
    /// multiple of 10 ms, so a misplaced boundary moves at least 10 ms
    /// into the wrong layer, well beyond scheduling jitter.
    fn spin_ms(ms: u64) {
        spin(Duration::from_millis(ms));
    }

    #[test]
    fn self_times_partition_the_wall_time() {
        let shared = Shared::default();
        shared.lock().start(Layer::Outside);
        spin_ms(20);
        shared
            .lock()
            .observe(&EventKind::ActionStarted { name: "a".into() });
        shared.lock().loop_top();
        shared.nested(Layer::CkptPolicy, || spin_ms(30));
        shared.lock().switch(Layer::Plan);
        spin_ms(40);
        shared.lock().observe(&EventKind::WaveStarted { tasks: 2 });
        spin_ms(50);
        // A nested injector call inside the wave is not wave time.
        shared.nested(Layer::NodeManager, || spin_ms(60));
        shared.lock().admitted();
        spin_ms(20);
        shared.lock().injector_query();
        spin_ms(30);
        shared.lock().loop_top();
        shared.lock().switch(Layer::Plan);
        spin_ms(10);
        shared.lock().observe(&EventKind::ActionFinished {
            name: "a".into(),
            millis: 0,
        });
        spin_ms(10);
        shared.lock().finish();

        let b = shared.lock();
        let total: f64 = Layer::ALL.iter().map(|l| b.self_s(*l)).sum();
        assert!(
            (total - b.wall_s()).abs() < 1e-6,
            "{total} vs {}",
            b.wall_s()
        );
        let expect = [
            (Layer::Outside, 30.0),
            (Layer::CkptPolicy, 30.0),
            (Layer::Plan, 50.0),
            (Layer::Wave, 50.0),
            (Layer::NodeManager, 60.0),
            (Layer::Admit, 20.0),
            (Layer::Commit, 30.0),
        ];
        for (layer, ms) in expect {
            let got = b.self_s(layer) * 1e3;
            assert!(
                got >= ms && got < ms + 8.0,
                "{layer:?}: {got} ms, expected {ms}"
            );
        }
        assert_eq!(b.loop_iters, 2);
        assert_eq!(b.idle_iters, 1, "the second iteration started no wave");
        assert_eq!((b.waves, b.wave_tasks), (1, 2));
        assert_eq!(b.calls(Layer::NodeManager), 1);
    }

    #[test]
    fn nested_calls_charge_only_the_innermost_layer() {
        let shared = Shared::default();
        shared.lock().start(Layer::Commit);
        shared.nested(Layer::CkptPolicy, || {
            spin_ms(10);
            shared.nested(Layer::TraceEncode, || spin_ms(30));
        });
        shared.lock().finish();
        let b = shared.lock();
        let ckpt = b.self_s(Layer::CkptPolicy) * 1e3;
        assert!((10.0..18.0).contains(&ckpt), "{ckpt} ms");
        assert!(b.self_s(Layer::TraceEncode) * 1e3 >= 30.0);
        assert!(b.coverage_frac() > 0.999);
    }
}
