//! Seeded chaos schedules: hostile worker churn and checkpoint-store
//! degradation, generated deterministically from a single `u64` seed.
//!
//! The chaos subsystem composes with the two fault surfaces the engine
//! already exposes, rather than adding new hooks inside the hot path:
//!
//! * worker faults ride the [`FailureInjector`] trait — a
//!   [`ChaosInjector`] is a pre-generated [`ScriptedInjector`] plus
//!   fault notes the driver turns into `FaultInjected` trace events;
//! * store faults ride the [`StoreFaultPolicy`] trait on
//!   [`crate::CheckpointStore`] — [`ChaosStoreFaults`] tears or drops
//!   writes and opens transient read-outage windows.
//!
//! Every decision is drawn from `flint_simtime::rng` sub-streams of the
//! campaign seed — never the wall clock — so the same seed replays the
//! same faults at the same virtual instants on every host.
//!
//! [`run_chaos`] is the one chaos-run path, shared by `flint chaos` and
//! the recovery test suites.

use std::panic::{catch_unwind, AssertUnwindSafe};

use flint_market::{
    correlated_groups, correlation_matrix, CloudSim, HazardSpec, MarketCatalog, CORRELATION_STEP,
    MAX_CORRELATION, SPIKE_THRESHOLD,
};
use flint_simtime::rng::stream;
use flint_simtime::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::checkpoint::{StoreFaultPolicy, WriteFault};
use crate::cluster::WorkerSpec;
use crate::driver::Driver;
use crate::error::{EngineError, Result};
use crate::injector::{FailureInjector, ScriptedInjector, WorkerEvent};
use crate::manifest::RunManifest;
use crate::stats::RunStats;

/// Add/Remove cycles per flapping worker.
const FLAP_CYCLES: u32 = 3;
/// Gap between flap transitions.
const FLAP_GAP: SimDuration = SimDuration::from_secs(15);
/// Lateness multiplier for delayed replacements.
const DELAY_FACTOR: u64 = 8;
/// Length of each store read-outage window.
const OUTAGE_LEN: SimDuration = SimDuration::from_mins(5);
/// MTTF parameter of an exponential `lifetime_hazard` (capped hazards
/// carry their own parameters).
const LIFETIME_MTTF: SimDuration = SimDuration::from_hours(1);
/// How long a market collapse leaves the cluster empty before the
/// recovery cohort arrives.
const COLLAPSE_LEN: SimDuration = SimDuration::from_mins(10);

/// Parameters of one seeded chaos campaign. Probabilities are per
/// scheduled revocation event (or per write, for the store knobs);
/// setting every rate to zero yields an empty schedule, which the
/// golden-trace suite uses to prove chaos-off is a no-op.
///
/// Warnings lead revocations by [`CloudSim::EC2_WARNING`], and
/// replacements arrive after [`CloudSim::DEFAULT_ACQUISITION_DELAY`]
/// (eight times that when delayed). A flapping worker cycles three
/// times, 15 s apart; store outages last five minutes; a market
/// collapse leaves the cluster empty for ten minutes.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Campaign seed; every sub-stream derives from it.
    pub seed: u64,
    /// Schedule horizon — faults land in `(0, horizon]`.
    pub horizon: SimDuration,
    /// Base worker pool the driver starts with (ext ids `1..=n`).
    pub n_workers: u32,
    /// Hardware shape of injected replacement workers.
    pub spec: WorkerSpec,
    /// Revocation events scheduled across the horizon.
    pub revocations: u32,
    /// Fraction of revocations that skip the `Warn` (warning-less).
    pub unwarned_frac: f64,
    /// Probability a revocation widens to its whole correlated group.
    pub mass_revoke_prob: f64,
    /// Correlated ext-id groups (from the market correlation model);
    /// a mass revocation takes out the victim's entire group.
    pub groups: Vec<Vec<u64>>,
    /// Probability a revoked worker flaps (rapid re-add/re-remove).
    pub flap_prob: f64,
    /// Whether revocations are followed by replacement `Add`s.
    pub replacements: bool,
    /// Fraction of replacements that arrive late.
    pub delayed_frac: f64,
    /// Probability a checkpoint write lands torn (corrupt-on-read).
    pub torn_write_prob: f64,
    /// Probability a checkpoint write is lost outright.
    pub failed_write_prob: f64,
    /// Transient store read-outage windows across the horizon.
    pub outages: u32,
    /// When set, revocation *times* are no longer uniform over the
    /// horizon: successive gaps are lifetimes sampled from this hazard
    /// model (wrapped into the horizon), so chaos timing and the
    /// selection layer share one preemption distribution. `None` (the
    /// default) keeps the legacy uniform draws byte-identical.
    pub lifetime_hazard: Option<HazardSpec>,
    /// Probability the campaign kills the driver mid-run: the schedule
    /// draws a wave number and the harness suspends the driver at that
    /// wave-commit boundary (via `DriverConfig::suspend_after_waves`),
    /// then resumes from the persisted manifest. `0.0` (the default)
    /// draws nothing, keeping legacy schedules byte-identical.
    pub driver_crash_prob: f64,
    /// Upper bound (inclusive) on the drawn crash wave.
    pub driver_crash_wave_max: u64,
    /// Probability the campaign includes a market-wide collapse: every
    /// live pool worker is removed at one drawn instant, with a fresh
    /// cohort arriving ten minutes later. `0.0` (the default) draws
    /// nothing.
    pub market_collapse_prob: f64,
}

impl ChaosConfig {
    /// A moderately hostile default campaign for `seed`: mixed warned
    /// and warning-less revocations with replacements, occasional
    /// flaps and mass revocations, and a degraded checkpoint store.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            horizon: SimDuration::from_hours(2),
            n_workers: 4,
            spec: WorkerSpec::r3_large(),
            revocations: 6,
            unwarned_frac: 0.5,
            mass_revoke_prob: 0.2,
            groups: Vec::new(),
            flap_prob: 0.25,
            replacements: true,
            delayed_frac: 0.3,
            torn_write_prob: 0.15,
            failed_write_prob: 0.1,
            outages: 2,
            lifetime_hazard: None,
            driver_crash_prob: 0.0,
            driver_crash_wave_max: 8,
            market_collapse_prob: 0.0,
        }
    }

    /// The default campaign for `seed` on `n_workers` base workers,
    /// narrowed to the fault kinds named in `kinds` — a comma-separated
    /// list of `revoke`, `mass`, `flap`, `delay`, `store`, `driver-crash`
    /// and `market-collapse`, or `all`. `all` means every in-run kind;
    /// `driver-crash` and `market-collapse` change the campaign's shape
    /// (runs suspend and replay through [`Driver::resume`]), so they arm
    /// only when named explicitly, each at probability 0.5. Mass
    /// revocations take out correlated groups drawn from the synthetic
    /// EC2 catalog of `seed`.
    pub fn for_fault_kinds(seed: u64, kinds: &str, n_workers: u32) -> Self {
        let named: Vec<&str> = kinds.split(',').map(str::trim).collect();
        let has = |k: &str| kinds == "all" || named.contains(&k);
        let mut cfg = ChaosConfig::new(seed);
        cfg.n_workers = n_workers;
        if !has("revoke") && !has("mass") && !has("flap") {
            cfg.revocations = 0;
        }
        if has("mass") {
            cfg.groups = correlated_ext_groups(seed, n_workers);
        } else {
            cfg.mass_revoke_prob = 0.0;
        }
        if !has("flap") {
            cfg.flap_prob = 0.0;
        }
        if !has("delay") {
            cfg.delayed_frac = 0.0;
        }
        if !has("store") {
            cfg.torn_write_prob = 0.0;
            cfg.failed_write_prob = 0.0;
            cfg.outages = 0;
        }
        if named.contains(&"driver-crash") {
            cfg.driver_crash_prob = 0.5;
        }
        if named.contains(&"market-collapse") {
            cfg.market_collapse_prob = 0.5;
        }
        cfg
    }
}

/// Builds correlated ext-id groups for mass revocations by grouping the
/// catalog's spot markets on their spike correlation and assigning base
/// workers to markets round-robin — the chaos analogue of the paper's
/// observation that servers in correlated markets fail together.
fn correlated_ext_groups(seed: u64, workers: u32) -> Vec<Vec<u64>> {
    let catalog = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(30));
    let spot = catalog.spot_markets();
    if spot.is_empty() {
        return Vec::new();
    }
    let traces: Vec<_> = spot.iter().map(|m| &m.trace).collect();
    let corr = correlation_matrix(
        &traces,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_days(30),
        CORRELATION_STEP,
        SPIKE_THRESHOLD,
    );
    correlated_groups(&corr, MAX_CORRELATION)
        .into_iter()
        .map(|group| {
            (1..=u64::from(workers))
                .filter(|ext| group.contains(&(((ext - 1) as usize) % spot.len())))
                .collect::<Vec<u64>>()
        })
        .filter(|g| !g.is_empty())
        .collect()
}

/// A fully materialized chaos schedule: the worker-event script, the
/// fault notes it corresponds to, and the store outage windows. One
/// generation pass feeds both the [`ChaosInjector`] and the
/// [`ChaosStoreFaults`] policy, so the two surfaces stay consistent.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Timed cluster-membership changes.
    pub worker_events: Vec<(SimTime, WorkerEvent)>,
    /// `(t, kind, target)` fault descriptors for `FaultInjected`
    /// trace events, time-sorted.
    pub notes: Vec<(SimTime, String, String)>,
    /// Half-open `[start, end)` store read-outage windows.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Wave-commit boundary at which the campaign kills the driver
    /// (`None` unless the driver-crash fault kind was drawn). The
    /// harness wires this into `DriverConfig::suspend_after_waves` and
    /// resumes from the persisted manifest.
    pub driver_crash_wave: Option<u64>,
}

impl ChaosSchedule {
    /// Generates the schedule for `cfg`, entirely up front, from
    /// seeded sub-streams (no wall clock anywhere).
    pub fn generate(cfg: &ChaosConfig) -> ChaosSchedule {
        let mut rng = stream(cfg.seed, "chaos-schedule");
        let horizon_ms = cfg.horizon.as_millis().max(2);
        let mut events: Vec<(SimTime, WorkerEvent)> = Vec::new();
        let mut notes: Vec<(SimTime, String, String)> = Vec::new();
        // Victims come from the live pool: the base workers plus any
        // replacements injected so far. Revoking an ext id the driver
        // no longer hosts is deliberate chaos (the driver must shrug).
        let mut pool: Vec<u64> = (1..=u64::from(cfg.n_workers.max(1))).collect();
        let mut next_replacement_ext: u64 = 9_000_000;
        let hazard = cfg.lifetime_hazard.map(|spec| spec.build(LIFETIME_MTTF));
        let mut hazard_clock = SimDuration::ZERO;

        for _ in 0..cfg.revocations {
            let t = match &hazard {
                // Legacy path: uniform over the horizon, byte-identical
                // to pre-hazard schedules.
                None => SimTime::from_millis(rng.gen_range(1..horizon_ms)),
                // Hazard path: the next revocation lands one sampled
                // lifetime after the previous one, wrapped into
                // `(0, horizon)` so every event stays on-schedule.
                Some(h) => {
                    hazard_clock += h.sample_lifetime(&mut rng);
                    SimTime::from_millis((hazard_clock.as_millis() % horizon_ms).max(1))
                }
            };
            let victim = pool[rng.gen_range(0..pool.len())];
            let mass = cfg.mass_revoke_prob > 0.0 && rng.gen_bool(cfg.mass_revoke_prob);
            let victims: Vec<u64> = if mass {
                cfg.groups
                    .iter()
                    .find(|g| g.contains(&victim))
                    .cloned()
                    .unwrap_or_else(|| vec![victim])
            } else {
                vec![victim]
            };
            for &v in &victims {
                let warned = cfg.unwarned_frac < 1.0 && !rng.gen_bool(cfg.unwarned_frac);
                if warned {
                    let warn_t = t
                        .saturating_sub(CloudSim::EC2_WARNING)
                        .max(SimTime::from_millis(1));
                    events.push((warn_t, WorkerEvent::Warn { ext_id: v }));
                }
                events.push((t, WorkerEvent::Remove { ext_id: v }));
                let kind = if mass {
                    "mass_revoke"
                } else if warned {
                    "revoke_warned"
                } else {
                    "revoke_unwarned"
                };
                notes.push((t, kind.to_string(), format!("ext-{v}")));
                if cfg.replacements {
                    let late = cfg.delayed_frac > 0.0 && rng.gen_bool(cfg.delayed_frac);
                    let delay = if late {
                        CloudSim::DEFAULT_ACQUISITION_DELAY * DELAY_FACTOR
                    } else {
                        CloudSim::DEFAULT_ACQUISITION_DELAY
                    };
                    let ext = next_replacement_ext;
                    next_replacement_ext += 1;
                    let rt = t + delay;
                    events.push((
                        rt,
                        WorkerEvent::Add {
                            ext_id: ext,
                            spec: cfg.spec,
                        },
                    ));
                    if late {
                        notes.push((rt, "delayed_add".to_string(), format!("ext-{ext}")));
                    }
                    pool.push(ext);
                }
            }
            if cfg.flap_prob > 0.0 && rng.gen_bool(cfg.flap_prob) {
                let mut ft = t;
                for _ in 0..FLAP_CYCLES {
                    ft += FLAP_GAP;
                    events.push((
                        ft,
                        WorkerEvent::Add {
                            ext_id: victim,
                            spec: cfg.spec,
                        },
                    ));
                    ft += FLAP_GAP;
                    events.push((ft, WorkerEvent::Remove { ext_id: victim }));
                }
                notes.push((t, "flap".to_string(), format!("ext-{victim}")));
            }
        }

        let mut outages: Vec<(SimTime, SimTime)> = Vec::new();
        for _ in 0..cfg.outages {
            let s = SimTime::from_millis(rng.gen_range(1..horizon_ms));
            outages.push((s, s + OUTAGE_LEN));
            notes.push((
                s,
                "store_outage".to_string(),
                "checkpoint-store".to_string(),
            ));
        }
        // New fault kinds draw strictly after every legacy draw, each
        // behind a `prob > 0.0` short-circuit, so campaigns that leave
        // them off consume exactly the legacy stream positions.
        let mut driver_crash_wave = None;
        if cfg.driver_crash_prob > 0.0 && rng.gen_bool(cfg.driver_crash_prob) {
            let wave = rng.gen_range(1..=cfg.driver_crash_wave_max.max(1));
            driver_crash_wave = Some(wave);
            notes.push((
                SimTime::from_millis(1),
                "driver_crash".to_string(),
                format!("wave-{wave}"),
            ));
        }
        if cfg.market_collapse_prob > 0.0 && rng.gen_bool(cfg.market_collapse_prob) {
            let t = SimTime::from_millis(rng.gen_range(1..horizon_ms));
            for &v in &pool {
                events.push((t, WorkerEvent::Remove { ext_id: v }));
            }
            notes.push((
                t,
                "market_collapse".to_string(),
                format!("workers-{}", pool.len()),
            ));
            let rt = t + COLLAPSE_LEN;
            for _ in 0..cfg.n_workers.max(1) {
                let ext = next_replacement_ext;
                next_replacement_ext += 1;
                events.push((
                    rt,
                    WorkerEvent::Add {
                        ext_id: ext,
                        spec: cfg.spec,
                    },
                ));
            }
        }

        outages.sort();
        notes.sort_by_key(|a| a.0);
        // ScriptedInjector re-sorts worker events by (t, kind rank).
        ChaosSchedule {
            worker_events: events,
            notes,
            outages,
            driver_crash_wave,
        }
    }

    /// Builds the store-fault policy half of this schedule.
    pub fn store_faults(&self, cfg: &ChaosConfig) -> ChaosStoreFaults {
        ChaosStoreFaults {
            torn_prob: cfg.torn_write_prob,
            fail_prob: cfg.failed_write_prob,
            outages: self.outages.clone(),
            rng: stream(cfg.seed, "chaos-store-writes"),
        }
    }
}

/// A [`FailureInjector`] replaying a pre-generated chaos schedule and
/// reporting its fault notes so the driver can trace `FaultInjected`
/// events alongside the membership changes.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    inner: ScriptedInjector,
    notes: Vec<(SimTime, String, String)>,
    note_cursor: usize,
}

impl ChaosInjector {
    /// Wraps an existing schedule (shared with a store-fault policy).
    pub fn from_schedule(schedule: ChaosSchedule) -> Self {
        ChaosInjector {
            inner: ScriptedInjector::new(schedule.worker_events),
            notes: schedule.notes,
            note_cursor: 0,
        }
    }
}

impl FailureInjector for ChaosInjector {
    fn events(&mut self, from: SimTime, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        self.inner.events(from, to)
    }

    fn next_event_after(&mut self, t: SimTime) -> Option<SimTime> {
        self.inner.next_event_after(t)
    }

    fn fault_notes(&mut self, _from: SimTime, to: SimTime) -> Vec<(SimTime, String, String)> {
        // Mirror ScriptedInjector window semantics: anything at or
        // before `to` not yet delivered goes out now (late notes are
        // delivered rather than dropped).
        let mut out = Vec::new();
        while self.note_cursor < self.notes.len() && self.notes[self.note_cursor].0 <= to {
            out.push(self.notes[self.note_cursor].clone());
            self.note_cursor += 1;
        }
        out
    }
}

/// Checkpoint-store degradation drawn from the campaign seed: each
/// write independently lands torn or is lost; reads fail inside the
/// schedule's outage windows. Write decisions consume a dedicated RNG
/// sub-stream on the driver thread; the outage predicate is a pure
/// function of `now`, as [`StoreFaultPolicy`] requires.
#[derive(Debug)]
pub struct ChaosStoreFaults {
    torn_prob: f64,
    fail_prob: f64,
    outages: Vec<(SimTime, SimTime)>,
    rng: StdRng,
}

impl StoreFaultPolicy for ChaosStoreFaults {
    fn on_write(&mut self, _key: &str, _now: SimTime) -> WriteFault {
        // Draw both coins unconditionally so the stream position never
        // depends on the outcome of the first draw.
        let torn = self.torn_prob > 0.0 && self.rng.gen_bool(self.torn_prob);
        let fail = self.fail_prob > 0.0 && self.rng.gen_bool(self.fail_prob);
        if fail {
            WriteFault::Fail
        } else if torn {
            WriteFault::Torn
        } else {
            WriteFault::None
        }
    }

    fn read_unavailable(&self, _key: &str, now: SimTime) -> bool {
        self.outages.iter().any(|(s, e)| now >= *s && now < *e)
    }
}

/// How one seeded chaos run ended, judged against the headline
/// invariant: byte-identical to the fault-free twin, or a typed error.
#[derive(Debug)]
pub enum ChaosOutcome<T> {
    /// Completed with the twin's output.
    Identical {
        /// The crash wave, when the run was killed and resumed.
        resumed_from: Option<u64>,
        /// Statistics of the session that completed.
        stats: RunStats,
        /// Virtual makespan of the session that completed.
        runtime: SimDuration,
    },
    /// Failed fail-stop with a typed error — acceptable under chaos.
    Typed(EngineError),
    /// Completed with this output, which differs from the twin's: an
    /// invariant violation.
    WrongData(T),
    /// Panicked: an invariant violation.
    Panicked,
}

/// Runs `job` once under `schedule` and classifies the result against
/// `expect`, the fault-free output.
///
/// `build` is called once per session and returns a fresh driver with
/// the caller's config, hooks, workers and trace sinks. The runner owns
/// the fault wiring: the schedule's [`ChaosInjector`] replaces the
/// driver's injector, [`ChaosSchedule::store_faults`] becomes the store
/// fault policy, and the session suspends at
/// [`ChaosSchedule::driver_crash_wave`]. A suspended session is dropped
/// (closing its trace sinks) and a fresh one replays through
/// [`Driver::resume`]. Manifest writes bypass the store fault policy,
/// so a missing or undecodable manifest panics: a violation.
pub fn run_chaos<T: PartialEq>(
    schedule: &ChaosSchedule,
    ccfg: &ChaosConfig,
    mut build: impl FnMut() -> Driver,
    mut job: impl FnMut(&mut Driver) -> Result<T>,
    expect: &T,
) -> ChaosOutcome<T> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut session = |suspend_after_waves| {
            let mut d = build();
            d.install_faults(
                Box::new(ChaosInjector::from_schedule(schedule.clone())),
                suspend_after_waves,
            );
            d.checkpoints_mut()
                .set_fault_policy(Box::new(schedule.store_faults(ccfg)));
            d
        };
        let mut d = session(schedule.driver_crash_wave);
        let mut out = job(&mut d);
        d.trace().flush();
        let mut resumed_from = None;
        if let Err(EngineError::Suspended { manifest: key, .. }) = &out {
            let text = d.checkpoints().get_manifest(key);
            let manifest = RunManifest::decode(text.expect("suspension persists its manifest"))
                .expect("persisted manifest decodes");
            drop(d);
            d = session(None);
            d.resume(&manifest)?;
            out = job(&mut d);
            d.trace().flush();
            resumed_from = schedule.driver_crash_wave;
        }
        out.map(|v| (v, d.stats().clone(), d.now().since_epoch(), resumed_from))
    }));
    match result {
        Err(_) => ChaosOutcome::Panicked,
        Ok(Err(e)) => ChaosOutcome::Typed(e),
        Ok(Ok((out, ..))) if out != *expect => ChaosOutcome::WrongData(out),
        Ok(Ok((_, stats, runtime, resumed_from))) => ChaosOutcome::Identical {
            resumed_from,
            stats,
            runtime,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DriverConfig, EagerCheckpoint, NoFailures, Value};

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig::new(42);
        let a = ChaosSchedule::generate(&cfg);
        let b = ChaosSchedule::generate(&cfg);
        assert_eq!(a.worker_events, b.worker_events);
        assert_eq!(a.notes, b.notes);
        assert_eq!(a.outages, b.outages);
        let c = ChaosSchedule::generate(&ChaosConfig::new(43));
        assert!(
            a.worker_events != c.worker_events || a.outages != c.outages,
            "different seeds should diverge"
        );
    }

    #[test]
    fn schedule_fits_knobs() {
        let mut cfg = ChaosConfig::new(7);
        cfg.revocations = 10;
        cfg.flap_prob = 0.0;
        cfg.mass_revoke_prob = 0.0;
        cfg.replacements = false;
        cfg.unwarned_frac = 1.0;
        cfg.outages = 0;
        let s = ChaosSchedule::generate(&cfg);
        // Pure warning-less revocations: exactly one Remove per event.
        assert_eq!(s.worker_events.len(), 10);
        assert!(s
            .worker_events
            .iter()
            .all(|(_, ev)| matches!(ev, WorkerEvent::Remove { .. })));
        assert!(s.outages.is_empty());
        assert_eq!(s.notes.len(), 10);
        assert!(s.notes.iter().all(|(_, k, _)| k == "revoke_unwarned"));
    }

    #[test]
    fn mass_revocation_takes_whole_group() {
        let mut cfg = ChaosConfig::new(1);
        cfg.revocations = 1;
        cfg.mass_revoke_prob = 1.0;
        cfg.flap_prob = 0.0;
        cfg.replacements = false;
        cfg.unwarned_frac = 1.0;
        cfg.outages = 0;
        cfg.n_workers = 4;
        cfg.groups = vec![vec![1, 2], vec![3, 4]];
        let s = ChaosSchedule::generate(&cfg);
        let removed: Vec<u64> = s
            .worker_events
            .iter()
            .filter_map(|(_, ev)| match ev {
                WorkerEvent::Remove { ext_id } => Some(*ext_id),
                _ => None,
            })
            .collect();
        assert_eq!(
            removed.len(),
            2,
            "whole correlated group revoked: {removed:?}"
        );
        assert!(removed == vec![1, 2] || removed == vec![3, 4]);
        assert!(s.notes.iter().all(|(_, k, _)| k == "mass_revoke"));
    }

    #[test]
    fn injector_delivers_notes_alongside_events() {
        let mut cfg = ChaosConfig::new(5);
        cfg.revocations = 3;
        let schedule = ChaosSchedule::generate(&cfg);
        let n_notes = schedule.notes.len();
        let mut inj = ChaosInjector::from_schedule(schedule);
        let horizon = SimTime::ZERO + cfg.horizon + SimDuration::from_hours(1);
        let evs = inj.events(SimTime::ZERO, horizon);
        let notes = inj.fault_notes(SimTime::ZERO, horizon);
        assert!(!evs.is_empty());
        assert_eq!(notes.len(), n_notes);
        // Consumed exactly once.
        assert!(inj.fault_notes(SimTime::ZERO, horizon).is_empty());
    }

    #[test]
    fn driver_crash_and_market_collapse_draw_after_legacy_stream() {
        let legacy = ChaosSchedule::generate(&ChaosConfig::new(42));
        assert!(legacy.driver_crash_wave.is_none(), "off by default");

        let mut cfg = ChaosConfig::new(42);
        cfg.driver_crash_prob = 1.0;
        cfg.driver_crash_wave_max = 5;
        cfg.market_collapse_prob = 1.0;
        let s = ChaosSchedule::generate(&cfg);
        // Appended draws: every legacy event survives as an exact
        // prefix, so enabling the new kinds never perturbs old faults.
        assert_eq!(
            &s.worker_events[..legacy.worker_events.len()],
            &legacy.worker_events[..]
        );
        let wave = s.driver_crash_wave.expect("crash drawn at prob 1.0");
        assert!((1..=5).contains(&wave));
        assert!(s.notes.iter().any(|(_, k, _)| k == "driver_crash"));
        // The collapse removes the whole live pool at one instant and
        // brings a fresh cohort exactly COLLAPSE_LEN later.
        let (ct, _, target) = s
            .notes
            .iter()
            .find(|(_, k, _)| k == "market_collapse")
            .expect("collapse drawn at prob 1.0")
            .clone();
        let pool_size: usize = target
            .strip_prefix("workers-")
            .and_then(|v| v.parse().ok())
            .unwrap();
        let removed_at_ct = s
            .worker_events
            .iter()
            .skip(legacy.worker_events.len())
            .filter(|(t, e)| *t == ct && matches!(e, WorkerEvent::Remove { .. }))
            .count();
        assert_eq!(removed_at_ct, pool_size);
        let cohort = s
            .worker_events
            .iter()
            .filter(|(t, e)| *t == ct + COLLAPSE_LEN && matches!(e, WorkerEvent::Add { .. }))
            .count();
        assert_eq!(cohort, cfg.n_workers as usize);
    }

    /// FNV-1a over the debug rendering of 64 seeds' schedules.
    fn schedule_digest(kinds: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in 0..64 {
            let mut cfg = ChaosConfig::for_fault_kinds(seed, kinds, 4);
            cfg.horizon = SimDuration::from_mins(30);
            let s = ChaosSchedule::generate(&cfg);
            let line = format!(
                "{:?}|{:?}|{:?}|{:?}\n",
                s.worker_events, s.notes, s.outages, s.driver_crash_wave
            );
            for b in line.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn schedules_are_pinned() {
        assert_eq!(schedule_digest("all"), 0xefba_e7a0_2eb6_ba38);
        assert_eq!(
            schedule_digest("revoke,store,driver-crash,market-collapse"),
            0x7ad8_613b_27e6_26c4
        );
    }

    #[test]
    fn store_faults_are_deterministic_and_windowed() {
        let cfg = ChaosConfig::new(9);
        let s = ChaosSchedule::generate(&cfg);
        let mut a = s.store_faults(&cfg);
        let mut b = s.store_faults(&cfg);
        let seq_a: Vec<WriteFault> = (0..32)
            .map(|i| a.on_write(&format!("k{i}"), SimTime::ZERO))
            .collect();
        let seq_b: Vec<WriteFault> = (0..32)
            .map(|i| b.on_write(&format!("k{i}"), SimTime::ZERO))
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(
            seq_a.iter().any(|f| *f != WriteFault::None),
            "defaults should fault sometimes"
        );
        if let Some((start, end)) = s.outages.first().copied() {
            assert!(a.read_unavailable("k", start));
            assert!(!a.read_unavailable("k", end));
        }
    }

    /// A campaign with every in-run fault kind switched off, so the
    /// classification tests see only what the job itself does.
    fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig::for_fault_kinds(seed, "", 4)
    }

    fn session() -> Driver {
        let mut d = Driver::new(
            DriverConfig::default(),
            Box::new(EagerCheckpoint),
            Box::new(NoFailures),
        );
        for ext in 1..=4 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        d
    }

    fn job(d: &mut Driver) -> Result<Vec<Value>> {
        let src = d.ctx().parallelize((0..400).map(Value::from_i64), 8);
        let pairs = d.ctx().map(src, |v| {
            Value::pair(Value::Int(v.as_i64().unwrap() % 7), v.clone())
        });
        let sums = d.ctx().reduce_by_key(pairs, 4, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        });
        let sorted = d.ctx().sort_by_key(sums, 3, true);
        d.collect(sorted)
    }

    #[test]
    fn fault_kinds_shape_the_default_campaign() {
        let all = ChaosConfig::for_fault_kinds(3, "all", 4);
        assert_eq!(all.revocations, ChaosConfig::new(3).revocations);
        assert!(all.torn_write_prob > 0.0 && all.flap_prob > 0.0);
        assert_eq!(all.driver_crash_prob, 0.0, "crashes arm only by name");
        let store = ChaosConfig::for_fault_kinds(3, "store,driver-crash", 4);
        assert_eq!(store.revocations, 0);
        assert!(store.torn_write_prob > 0.0 && store.outages > 0);
        assert_eq!(store.driver_crash_prob, 0.5);
        assert_eq!(store.market_collapse_prob, 0.0);
        let none = quiet(3);
        assert!(ChaosSchedule::generate(&none).worker_events.is_empty());
        assert_eq!(none.torn_write_prob + none.failed_write_prob, 0.0);
    }

    #[test]
    fn runner_classifies_every_ending() {
        let ccfg = quiet(1);
        let schedule = ChaosSchedule::generate(&ccfg);
        let expect = job(&mut session()).unwrap();
        assert!(matches!(
            run_chaos(&schedule, &ccfg, session, job, &expect),
            ChaosOutcome::Identical {
                resumed_from: None,
                ..
            }
        ));
        let wrong = vec![Value::Int(0)];
        assert!(matches!(
            run_chaos(&schedule, &ccfg, session, job, &wrong),
            ChaosOutcome::WrongData(out) if out == expect
        ));
        let typed = |_: &mut Driver| -> Result<Vec<Value>> { Err(EngineError::NoWorkers) };
        assert!(matches!(
            run_chaos(&schedule, &ccfg, session, typed, &expect),
            ChaosOutcome::Typed(EngineError::NoWorkers)
        ));
        let panics = |_: &mut Driver| -> Result<Vec<Value>> { panic!("job bug") };
        assert!(matches!(
            run_chaos(&schedule, &ccfg, session, panics, &expect),
            ChaosOutcome::Panicked
        ));
    }

    #[test]
    fn crash_wave_resumes_byte_identical() {
        let mut ccfg = quiet(2);
        ccfg.driver_crash_prob = 1.0;
        ccfg.driver_crash_wave_max = 3;
        let schedule = ChaosSchedule::generate(&ccfg);
        let w = schedule.driver_crash_wave.expect("crash drawn at prob 1.0");
        let mut twin = session();
        let expect = job(&mut twin).unwrap();
        assert!(twin.waves_committed() > w, "the job must outlive wave {w}");
        match run_chaos(&schedule, &ccfg, session, job, &expect) {
            ChaosOutcome::Identical {
                resumed_from,
                stats,
                runtime,
            } => {
                assert_eq!(resumed_from, Some(w));
                assert_eq!(&stats, twin.stats(), "replay reproduces the twin's stats");
                assert_eq!(runtime, twin.now().since_epoch());
            }
            other => panic!("crash run should resume identical, got {other:?}"),
        }
    }
}
