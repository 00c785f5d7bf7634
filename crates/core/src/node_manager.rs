//! The node manager: provisioning, monitoring, warning handling, and
//! replacement of transient servers (paper §4, Fig. 5).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use flint_engine::{FailureInjector, WorkerEvent, WorkerSpec};
use flint_market::{CloudSim, InstanceEvent, InstanceId, Market, MarketId, MarketKind};
use flint_simtime::{SimDuration, SimTime};
use flint_store::StorageConfig;
use parking_lot::Mutex;

use crate::{
    harmonic_mttf, BidPolicy, FtSharedHandle, JobProfile, MarketView, SelectionConfig,
    SelectionPolicy, PRICE_WINDOW,
};

/// Converts a market's instance shape into an engine worker spec
/// (Spark-style 40 % of RAM reserved for the RDD cache, §5.5).
pub(crate) fn worker_spec(market: &Market) -> WorkerSpec {
    WorkerSpec {
        cores: market.spec.vcpus.max(1),
        cache_mem_bytes: (market.spec.mem_gb * 0.4 * 1e9) as u64,
        disk_bytes: (market.spec.local_ssd_gb * 1e9) as u64,
    }
}

/// Per-market circuit-breaker state. Closed breakers are simply absent
/// from the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Tripped: the market is excluded from selection until `until`,
    /// when it transitions to half-open.
    Open { until: SimTime },
    /// Probing: the market is selectable again; surviving until `until`
    /// closes the breaker, a revocation before then re-opens it.
    HalfOpen { until: SimTime },
}

struct NmInner {
    cloud: CloudSim,
    policy: Box<dyn SelectionPolicy>,
    bid: BidPolicy,
    cfg: SelectionConfig,
    job: JobProfile,
    storage: StorageConfig,
    n: u32,
    ft: FtSharedHandle,
    market_of: HashMap<InstanceId, MarketId>,
    /// Instances whose replacement was already requested (on warning).
    replaced: HashMap<InstanceId, bool>,
    /// Count of replacement rounds, for reporting.
    replacements: u64,
    /// Per-market circuit breakers (closed = absent), in market order so
    /// iteration reaching the trace is deterministic. Empty unless the
    /// breaker knobs in [`SelectionConfig`] are enabled.
    breakers: BTreeMap<MarketId, BreakerState>,
    /// Recent revocation times per market, pruned to
    /// `cfg.breaker_window`; feeds the revocation-rate trip condition.
    revoke_times: HashMap<MarketId, Vec<SimTime>>,
    /// Times a breaker tripped (closed/half-open → open), for reporting.
    breaker_trips: u64,
    /// On-demand workers provisioned by the capacity-floor backstop.
    backstop_workers: u64,
    /// When the age-dependent hazard was last re-fitted (unused under
    /// the memoryless default).
    last_hazard_refit: SimTime,
}

/// How often an age-dependent hazard re-fits the cluster MTTF between
/// membership changes (ages drift continuously; τ only needs periodic
/// nudges).
const HAZARD_REFIT_INTERVAL: SimDuration = SimDuration::from_mins(5);

impl NmInner {
    /// Asks the selection policy (through `pick`) for an allocation at
    /// `now`, over a market view that excludes open-breaker markets.
    fn select(
        &mut self,
        now: SimTime,
        pick: impl FnOnce(&mut dyn SelectionPolicy, &MarketView<'_>) -> Vec<(MarketId, u32)>,
    ) -> Vec<(MarketId, u32)> {
        let cooled = self.cooled_markets();
        let view = MarketView {
            catalog: self.cloud.catalog(),
            now,
            bid: self.bid,
            cfg: &self.cfg,
            job: &self.job,
            storage: self.storage,
            n: self.n,
            cooled: &cooled,
        };
        pick(self.policy.as_mut(), &view)
    }

    /// Markets excluded from selection: those with an open circuit
    /// breaker. Half-open breakers are deliberately *not* excluded — the
    /// next allocation into that market is the probe.
    fn cooled_markets(&self) -> Vec<MarketId> {
        self.breakers
            .iter()
            .filter(|(_, st)| matches!(st, BreakerState::Open { .. }))
            .map(|(m, _)| *m)
            .collect()
    }

    /// Whether any breaker trip condition is configured.
    fn breakers_enabled(&self) -> bool {
        self.cfg.breaker_revocation_threshold > 0 || self.cfg.breaker_price_factor > 0.0
    }

    /// Advances breaker state machines to `now`: expired open breakers
    /// enter half-open (the probe period), and half-open breakers that
    /// survived their probation close. Transitions are emitted at their
    /// scheduled expiry times, not at `now` — the state change happened
    /// then; this tick merely observes it.
    fn tick_breakers(&mut self, now: SimTime) {
        if self.breakers.is_empty() {
            return;
        }
        // Collected first: the loop below mutates the map.
        let ids: Vec<MarketId> = self.breakers.keys().copied().collect();
        for id in ids {
            // A long-idle breaker may cascade open → half-open → closed
            // within one tick.
            loop {
                match self.breakers[&id] {
                    BreakerState::Open { until } if until <= now => {
                        let probe_until = until + self.cfg.breaker_cooldown;
                        self.breakers
                            .insert(id, BreakerState::HalfOpen { until: probe_until });
                        self.cloud.trace().emit_with(until, || {
                            flint_engine::EventKind::BreakerHalfOpen {
                                market: u64::from(id.0),
                            }
                        });
                    }
                    BreakerState::HalfOpen { until } if until <= now => {
                        self.breakers.remove(&id);
                        self.cloud.trace().emit_with(until, || {
                            flint_engine::EventKind::BreakerClosed {
                                market: u64::from(id.0),
                            }
                        });
                        break;
                    }
                    _ => break,
                }
            }
        }
    }

    /// Trips `market`'s breaker open at `t` for `reason`.
    fn trip_breaker(&mut self, market: MarketId, t: SimTime, reason: &'static str) {
        let until = t + self.cfg.breaker_cooldown;
        self.breakers.insert(market, BreakerState::Open { until });
        self.breaker_trips += 1;
        self.cloud
            .trace()
            .emit_with(t, || flint_engine::EventKind::BreakerOpened {
                market: u64::from(market.0),
                reason: reason.to_string(),
                until_ms: until.as_millis(),
            });
    }

    /// Feeds one provider revocation into the breaker machinery: prunes
    /// the sliding revocation window, fails a half-open probe, or trips
    /// a closed breaker on revocation rate or price-above-on-demand.
    /// No-op (no state, no draws, no events) unless breakers are
    /// enabled, so default configurations are byte-identical.
    fn note_revocation(&mut self, market: MarketId, t: SimTime) {
        if !self.breakers_enabled() {
            return;
        }
        self.tick_breakers(t);
        let window_start = t.saturating_sub(self.cfg.breaker_window);
        let times = self.revoke_times.entry(market).or_default();
        times.push(t);
        times.retain(|rt| *rt >= window_start);
        let in_window = times.len() as u32;
        match self.breakers.get(&market) {
            Some(BreakerState::Open { until }) => {
                // Stragglers provisioned before the trip keep the
                // breaker open but do not re-emit.
                let extended = t + self.cfg.breaker_cooldown;
                if extended > *until {
                    self.breakers
                        .insert(market, BreakerState::Open { until: extended });
                }
            }
            Some(BreakerState::HalfOpen { .. }) => {
                self.trip_breaker(market, t, "probe_failed");
            }
            None => {
                let threshold = self.cfg.breaker_revocation_threshold;
                if threshold > 0 && in_window >= threshold {
                    self.trip_breaker(market, t, "revocation_rate");
                } else if self.cfg.breaker_price_factor > 0.0 {
                    let cat = self.cloud.catalog();
                    let m = cat.market(market);
                    let od_rate = cat.market(cat.on_demand_id()).on_demand_price;
                    if matches!(m.kind, MarketKind::Spot)
                        && m.trace.price_at(t) > self.cfg.breaker_price_factor * od_rate
                    {
                        self.trip_breaker(market, t, "price_above_on_demand");
                    }
                }
            }
        }
    }

    /// The on-demand backstop: when active capacity (pending included)
    /// falls below `capacity_floor · n`, buy the deficit from the
    /// catalog's on-demand pool at the fixed catalog price. Runs after
    /// each replacement batch; a no-op unless `cfg.capacity_floor` is
    /// positive.
    fn backstop_check(&mut self, t: SimTime) {
        if self.cfg.capacity_floor <= 0.0 {
            return;
        }
        let floor = (self.cfg.capacity_floor * f64::from(self.n)).ceil() as usize;
        let active = self.cloud.active_count();
        if active >= floor {
            return;
        }
        let deficit = (self.n as usize).saturating_sub(active) as u32;
        if deficit == 0 {
            return;
        }
        let od = self.cloud.catalog().on_demand_id();
        let price = self.cloud.catalog().market(od).on_demand_price;
        self.cloud
            .trace()
            .emit_with(t, || flint_engine::EventKind::BackstopProvisioned {
                market: u64::from(od.0),
                workers: u64::from(deficit),
                price,
            });
        self.backstop_workers += u64::from(deficit);
        for _ in 0..deficit {
            let id = self.cloud.request(od, price, t);
            self.market_of.insert(id, od);
        }
        self.refresh_cluster_mttf(t);
    }

    fn request_allocation(&mut self, alloc: &[(MarketId, u32)], now: SimTime) {
        let total: u32 = alloc.iter().map(|(_, c)| *c).sum();
        let risk = self.policy.decision_risk();
        for (market, count) in alloc {
            self.cloud
                .trace()
                .emit_with(now, || flint_engine::EventKind::MarketSelected {
                    market: u64::from(market.0),
                    workers: u64::from(*count),
                });
            if let Some(risk) = risk {
                self.cloud
                    .trace()
                    .emit_with(now, || flint_engine::EventKind::PortfolioWeight {
                        market: u64::from(market.0),
                        weight: f64::from(*count) / f64::from(total.max(1)),
                        count: u64::from(*count),
                        risk,
                    });
            }
            let m = self.cloud.catalog().market(*market);
            let bid = self.place_bid(m);
            for _ in 0..*count {
                let id = self.cloud.request(*market, bid, now);
                self.market_of.insert(id, *market);
            }
        }
        self.refresh_cluster_mttf(now);
    }

    /// The bid to place in `market`: the configured policy's bid,
    /// hazard-discounted when an age-dependent hazard is configured.
    /// The memoryless default routes straight through [`BidPolicy`],
    /// unchanged.
    fn place_bid(&self, market: &Market) -> f64 {
        if self.cfg.hazard.is_memoryless() {
            self.bid.bid_for(market)
        } else {
            let hazard = self.cfg.hazard.build(SimDuration::MAX);
            self.bid.bid_for_hazard(market, hazard.as_ref())
        }
    }

    /// Recomputes the aggregate cluster MTTF and publishes it to the FT
    /// manager. Under the memoryless default this is Eq. 3 over the
    /// distinct markets of active instances, byte-for-byte the legacy
    /// pipeline; under an age-dependent hazard each active instance
    /// contributes both its market's price-implied MTTF and its
    /// age-conditioned mean residual lifetime (two independent
    /// revocation sources, so their rates add into the harmonic
    /// combination), and a `HazardRefit` event records the re-fit.
    fn refresh_cluster_mttf(&mut self, now: SimTime) {
        let agg = if self.cfg.hazard.is_memoryless() {
            // The cloud's per-market index already holds the distinct
            // active markets in sorted order — no instance scan.
            let mttfs: Vec<SimDuration> = self
                .cloud
                .active_markets()
                .map(|(mid, _)| {
                    let m = self.cloud.catalog().market(mid);
                    m.stats(now, PRICE_WINDOW, self.bid.bid_for(m)).mttf
                })
                .collect();
            harmonic_mttf(&mttfs)
        } else {
            self.hazard_cluster_mttf(now)
        };
        self.cloud
            .trace()
            .emit_with(now, || flint_engine::EventKind::MttfUpdated {
                mttf_ms: agg.as_millis(),
            });
        let mut ft = self.ft.lock();
        ft.mttf = agg;
    }

    /// Age-aware cluster MTTF under the configured hazard model.
    fn hazard_cluster_mttf(&mut self, now: SimTime) -> SimDuration {
        let hazard = self.cfg.hazard.build(SimDuration::MAX);
        // Market MTTFs are pure functions of (market, now); resolve each
        // distinct active market once instead of per instance.
        let market_mttf: HashMap<MarketId, SimDuration> = self
            .cloud
            .active_markets()
            .map(|(mid, _)| {
                let m = self.cloud.catalog().market(mid);
                (mid, m.stats(now, PRICE_WINDOW, self.bid.bid_for(m)).mttf)
            })
            .collect();
        let mut components: Vec<SimDuration> = Vec::new();
        let mut instances = 0u64;
        // The active index iterates in id order, matching the historical
        // full-scan component order exactly.
        for id in self.cloud.active() {
            let r = self.cloud.instance(id);
            // Pending instances (ready in the future) have age zero.
            let age = if now > r.ready_at {
                now.duration_since(r.ready_at)
            } else {
                SimDuration::ZERO
            };
            components.push(market_mttf[&r.market]);
            components.push(hazard.mean_residual(age));
            instances += 1;
        }
        let agg = harmonic_mttf(&components);
        self.cloud
            .trace()
            .emit_with(now, || flint_engine::EventKind::HazardRefit {
                model: hazard.name().to_string(),
                mttf_ms: agg.as_millis(),
                instances,
            });
        agg
    }

    fn provision_initial(&mut self, now: SimTime) {
        let alloc = self.select(now, |policy, view| policy.initial(view));
        self.request_allocation(&alloc, now);
    }

    /// Drains cloud events up to `to`, translating them into engine
    /// worker events and requesting replacements for warned/revoked
    /// instances (grouped per failed market, §3.2.2 restoration).
    fn collect_events(&mut self, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        let mut out = Vec::new();
        loop {
            let evs = self.cloud.events_until(to);
            if evs.is_empty() {
                break;
            }
            // (time, failed market) -> instances needing replacement.
            let mut to_replace: Vec<(SimTime, MarketId, u32)> = Vec::new();
            for (t, ev) in evs {
                let id = ev.instance();
                let ext_id = id.0;
                match ev {
                    InstanceEvent::Ready { .. } => {
                        let market = self.market_of[&id];
                        let spec = worker_spec(self.cloud.catalog().market(market));
                        out.push((t, WorkerEvent::Add { ext_id, spec }));
                    }
                    InstanceEvent::Warning { .. } => {
                        out.push((t, WorkerEvent::Warn { ext_id }));
                        if self.replaced.insert(id, true).is_none() {
                            let market = self.market_of[&id];
                            merge_replace(&mut to_replace, t, market);
                        }
                    }
                    InstanceEvent::Revoked { .. } => {
                        out.push((t, WorkerEvent::Remove { ext_id }));
                        let market = self.market_of[&id];
                        self.note_revocation(market, t);
                        if self.replaced.insert(id, true).is_none() {
                            merge_replace(&mut to_replace, t, market);
                        }
                    }
                }
            }
            let batch_end = to_replace.iter().map(|(t, _, _)| *t).max();
            for (t, failed, count) in to_replace {
                self.tick_breakers(t);
                let alloc = self.select(t, |policy, view| policy.replacement(view, failed, count));
                self.replacements += 1;
                let round = self.replacements;
                self.cloud
                    .trace()
                    .emit_with(t, || flint_engine::EventKind::ReplacementRound {
                        round,
                        lost: u64::from(count),
                        requested: alloc.iter().map(|(_, c)| u64::from(*c)).sum(),
                    });
                // When every transient market is excluded and the policy
                // fell back to the fixed-price pool, the replacement *is*
                // the on-demand backstop — record it as such.
                if self.cfg.capacity_floor > 0.0 && !alloc.is_empty() {
                    let cooled = self.cooled_markets();
                    let cat = self.cloud.catalog();
                    let od = cat.on_demand_id();
                    let all_od = alloc.iter().all(|(m, _)| *m == od);
                    let all_spot_excluded =
                        cat.spot_markets().iter().all(|m| cooled.contains(&m.id));
                    if all_od && all_spot_excluded {
                        let workers: u64 = alloc.iter().map(|(_, c)| u64::from(*c)).sum();
                        let price = cat.market(od).on_demand_price;
                        self.backstop_workers += workers;
                        self.cloud.trace().emit_with(t, || {
                            flint_engine::EventKind::BackstopProvisioned {
                                market: u64::from(od.0),
                                workers,
                                price,
                            }
                        });
                    }
                }
                self.request_allocation(&alloc, t);
            }
            if let Some(bt) = batch_end {
                self.backstop_check(bt);
            }
            // Replacement requests may schedule Ready events ≤ `to`;
            // loop to pick them up.
        }
        // Between membership changes, instance ages still advance; an
        // age-dependent hazard periodically re-fits τ's MTTF input.
        // No-op (and no events) under the memoryless default.
        if !self.cfg.hazard.is_memoryless() && to >= self.last_hazard_refit + HAZARD_REFIT_INTERVAL
        {
            self.last_hazard_refit = to;
            self.refresh_cluster_mttf(to);
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

fn merge_replace(list: &mut Vec<(SimTime, MarketId, u32)>, t: SimTime, market: MarketId) {
    for (lt, lm, lc) in list.iter_mut() {
        if *lm == market && *lt == t {
            *lc += 1;
            return;
        }
    }
    list.push((t, market, 1));
}

/// The node manager, used as the engine's [`FailureInjector`].
///
/// Cloneable handle semantics: [`NodeManager`] (given to the driver) and
/// [`NodeManagerHandle`] (kept by the caller for cost queries) share the
/// same state.
pub struct NodeManager(Arc<Mutex<NmInner>>);

/// A cloneable query handle onto a running [`NodeManager`].
#[derive(Clone)]
pub struct NodeManagerHandle(Arc<Mutex<NmInner>>);

impl NodeManager {
    /// Creates a node manager over `cloud`, provisioning `n` servers with
    /// `policy` at `start`. Returns the injector (for the driver) and a
    /// query handle (for the caller).
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        cloud: CloudSim,
        policy: Box<dyn SelectionPolicy>,
        bid: BidPolicy,
        cfg: SelectionConfig,
        job: JobProfile,
        storage: StorageConfig,
        n: u32,
        ft: FtSharedHandle,
        start: SimTime,
    ) -> (NodeManager, NodeManagerHandle) {
        let mut inner = NmInner {
            cloud,
            policy,
            bid,
            cfg,
            job,
            storage,
            n,
            ft,
            market_of: HashMap::new(),
            replaced: HashMap::new(),
            replacements: 0,
            breakers: BTreeMap::new(),
            revoke_times: HashMap::new(),
            breaker_trips: 0,
            backstop_workers: 0,
            last_hazard_refit: start,
        };
        inner.provision_initial(start);
        let arc = Arc::new(Mutex::new(inner));
        (NodeManager(arc.clone()), NodeManagerHandle(arc))
    }
}

impl FailureInjector for NodeManager {
    fn events(&mut self, _from: SimTime, to: SimTime) -> Vec<(SimTime, WorkerEvent)> {
        self.0.lock().collect_events(to)
    }

    fn next_event_after(&mut self, t: SimTime) -> Option<SimTime> {
        let inner = self.0.lock();
        inner
            .cloud
            .next_event_time()
            .map(|et| et.max(t + SimDuration::from_millis(1)))
    }
}

impl NodeManagerHandle {
    /// Total compute (instance) cost accrued up to `until`.
    pub fn compute_cost(&self, until: SimTime) -> f64 {
        self.0.lock().cloud.total_cost(until)
    }

    /// Number of provider revocations observed so far.
    pub fn revocations(&self) -> u64 {
        self.0.lock().cloud.revocation_count()
    }

    /// Number of replacement rounds the restoration policy executed.
    pub fn replacements(&self) -> u64 {
        self.0.lock().replacements
    }

    /// Times a market circuit breaker tripped open (0 unless the
    /// breaker knobs in [`SelectionConfig`] are enabled).
    pub fn breaker_trips(&self) -> u64 {
        self.0.lock().breaker_trips
    }

    /// On-demand workers provisioned by the backstop tier (capacity
    /// floor or all-markets-open fallback).
    pub fn backstop_workers(&self) -> u64 {
        self.0.lock().backstop_workers
    }

    /// The selection policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.0.lock().policy.name()
    }

    /// Distinct markets currently backing active instances (sorted — the
    /// cloud's per-market index maintains them, no instance scan).
    pub fn active_markets(&self) -> Vec<MarketId> {
        let inner = self.0.lock();
        inner.cloud.active_markets().map(|(m, _)| m).collect()
    }

    /// The on-demand price of the catalog's on-demand pool.
    pub fn on_demand_price(&self) -> f64 {
        let inner = self.0.lock();
        let cat = inner.cloud.catalog();
        cat.market(cat.on_demand_id()).on_demand_price
    }

    /// Terminates every active instance at `now` (end of job).
    pub fn shutdown(&self, now: SimTime) {
        let mut inner = self.0.lock();
        let ids: Vec<InstanceId> = inner.cloud.active().collect();
        for id in ids {
            inner.cloud.terminate(id, now);
        }
    }

    /// Runs `f` with the underlying cloud simulator (read-only).
    pub fn with_cloud<R>(&self, f: impl FnOnce(&CloudSim) -> R) -> R {
        f(&self.0.lock().cloud)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt_policy::new_shared;
    use crate::{BatchSelection, InteractiveSelection};
    use flint_market::MarketCatalog;

    fn launch_nm(
        policy: Box<dyn SelectionPolicy>,
        n: u32,
    ) -> (NodeManager, NodeManagerHandle, SimTime) {
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let ft = new_shared(SimDuration::MAX);
        let (nm, handle) = NodeManager::launch(
            cloud,
            policy,
            BidPolicy::OnDemandPrice,
            SelectionConfig::default(),
            JobProfile::default(),
            StorageConfig::default(),
            n,
            ft,
            start,
        );
        (nm, handle, start)
    }

    #[test]
    fn initial_provisioning_yields_n_ready_workers() {
        let (mut nm, handle, start) = launch_nm(Box::new(BatchSelection), 10);
        let evs = nm.events(start, start + SimDuration::from_mins(5));
        let adds = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Add { .. }))
            .count();
        assert_eq!(adds, 10);
        assert_eq!(handle.policy_name(), "flint-batch");
        assert_eq!(handle.active_markets().len(), 1, "batch = homogeneous");
    }

    #[test]
    fn interactive_provisioning_spans_markets() {
        let (mut nm, handle, start) = launch_nm(Box::new(InteractiveSelection::default()), 12);
        let evs = nm.events(start, start + SimDuration::from_mins(5));
        let adds = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Add { .. }))
            .count();
        assert_eq!(adds, 12);
        assert!(handle.active_markets().len() >= 2);
    }

    #[test]
    fn revocations_trigger_replacements_maintaining_n() {
        let (mut nm, handle, start) = launch_nm(Box::new(BatchSelection), 8);
        // Run a long window so the chosen spot market eventually spikes.
        let horizon = start + SimDuration::from_days(20);
        let evs = nm.events(start, horizon);
        let adds = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Add { .. }))
            .count();
        let removes = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Remove { .. }))
            .count();
        // Every removal is matched by a replacement add (initial 8 extra).
        assert_eq!(adds, removes + 8, "adds {adds}, removes {removes}");
        if removes > 0 {
            assert!(handle.replacements() > 0);
            assert!(handle.revocations() > 0);
        }
        // Warnings precede removals 1:1.
        let warns = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Warn { .. }))
            .count();
        assert_eq!(warns, removes);
    }

    #[test]
    fn breakers_trip_and_cluster_size_is_maintained() {
        // Hair-trigger breaker: one revocation in the window opens the
        // market. Replacements must still keep the cluster at n, only
        // redirected away from open markets (or to on-demand).
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let ft = new_shared(SimDuration::MAX);
        let cfg = SelectionConfig {
            breaker_revocation_threshold: 1,
            breaker_window: SimDuration::from_hours(2),
            breaker_cooldown: SimDuration::from_hours(6),
            capacity_floor: 0.5,
            ..SelectionConfig::default()
        };
        let (mut nm, handle) = NodeManager::launch(
            cloud,
            Box::new(BatchSelection),
            BidPolicy::OnDemandPrice,
            cfg,
            JobProfile::default(),
            StorageConfig::default(),
            8,
            ft,
            start,
        );
        let evs = nm.events(start, start + SimDuration::from_days(20));
        let adds = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Add { .. }))
            .count();
        let removes = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Remove { .. }))
            .count();
        assert!(
            adds >= removes + 8,
            "cluster never shrinks below target: adds {adds}, removes {removes}"
        );
        if removes > 0 {
            assert!(
                handle.breaker_trips() > 0,
                "a revocation must trip a breaker"
            );
        }
    }

    #[test]
    fn breaker_state_machine_walks_open_half_open_closed() {
        // Drive the state machine directly: trip at t0, tick past the
        // cooldown (→ half-open), tick past probation (→ closed), and
        // check a half-open revocation re-opens instead.
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let ft = new_shared(SimDuration::MAX);
        let cfg = SelectionConfig {
            breaker_revocation_threshold: 2,
            breaker_window: SimDuration::from_hours(1),
            breaker_cooldown: SimDuration::from_mins(30),
            ..SelectionConfig::default()
        };
        let (nm, _handle) = NodeManager::launch(
            cloud,
            Box::new(BatchSelection),
            BidPolicy::OnDemandPrice,
            cfg,
            JobProfile::default(),
            StorageConfig::default(),
            2,
            ft,
            start,
        );
        let mut inner = nm.0.lock();
        let m = MarketId(0);
        // Two revocations inside the window trip the breaker...
        inner.note_revocation(m, start);
        assert_eq!(inner.breaker_trips, 0, "one strike is not enough");
        inner.note_revocation(m, start + SimDuration::from_mins(10));
        assert_eq!(inner.breaker_trips, 1);
        assert_eq!(inner.cooled_markets(), vec![m]);
        // ...the cooldown expires into half-open (selectable again)...
        let probe_t = start + SimDuration::from_mins(50);
        inner.tick_breakers(probe_t);
        assert!(
            matches!(inner.breakers[&m], BreakerState::HalfOpen { .. }),
            "cooldown elapsed: breaker should be probing"
        );
        assert!(inner.cooled_markets().is_empty());
        // ...a revocation during the probe re-opens...
        inner.note_revocation(m, probe_t);
        assert_eq!(inner.breaker_trips, 2, "failed probe re-trips");
        assert!(matches!(inner.breakers[&m], BreakerState::Open { .. }));
        // ...and a quiet probe closes the breaker for good.
        inner.tick_breakers(probe_t + SimDuration::from_hours(2));
        assert!(inner.breakers.is_empty(), "survived probation: closed");
    }

    #[test]
    fn backstop_fills_capacity_deficit_from_on_demand() {
        // Force a deficit: a policy whose replacements never provision.
        #[derive(Debug)]
        struct NoReplacement;
        impl SelectionPolicy for NoReplacement {
            fn name(&self) -> &'static str {
                "no-replacement"
            }
            fn initial(&mut self, view: &MarketView<'_>) -> Vec<(MarketId, u32)> {
                vec![(view.catalog.spot_markets()[0].id, view.n)]
            }
            fn replacement(
                &mut self,
                _view: &MarketView<'_>,
                _failed: MarketId,
                _count: u32,
            ) -> Vec<(MarketId, u32)> {
                Vec::new()
            }
        }
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let ft = new_shared(SimDuration::MAX);
        let cfg = SelectionConfig {
            capacity_floor: 0.75,
            ..SelectionConfig::default()
        };
        let (mut nm, handle) = NodeManager::launch(
            cloud,
            Box::new(NoReplacement),
            BidPolicy::OnDemandPrice,
            cfg,
            JobProfile::default(),
            StorageConfig::default(),
            8,
            ft,
            start,
        );
        let evs = nm.events(start, start + SimDuration::from_days(20));
        let removes = evs
            .iter()
            .filter(|(_, e)| matches!(e, WorkerEvent::Remove { .. }))
            .count();
        if removes >= 3 {
            // Enough attrition to cross the 75 % floor: the backstop
            // must have stepped in, and every backstop worker is
            // on-demand (never revocable).
            assert!(
                handle.backstop_workers() > 0,
                "floor crossed but backstop never fired"
            );
            let od = handle.with_cloud(|c| c.catalog().on_demand_id());
            assert!(handle.active_markets().contains(&od));
        }
    }

    #[test]
    fn replacement_requested_on_warning_not_revocation() {
        let (mut nm, _handle, start) = launch_nm(Box::new(BatchSelection), 4);
        let horizon = start + SimDuration::from_days(20);
        let evs = nm.events(start, horizon);
        // Find a Warn and its matching Remove; the replacement Add must be
        // ready ~2 min (acquisition) after the warning, i.e. at/near the
        // removal time, not 2 min after it.
        let mut warn_time = None;
        let mut remove_time = None;
        for (t, e) in &evs {
            match e {
                WorkerEvent::Warn { .. } if warn_time.is_none() => warn_time = Some(*t),
                WorkerEvent::Remove { .. } if remove_time.is_none() => remove_time = Some(*t),
                _ => {}
            }
        }
        if let (Some(w), Some(r)) = (warn_time, remove_time) {
            // The first replacement Add after the warning:
            let add_after = evs
                .iter()
                .filter(|(t, e)| *t > w && matches!(e, WorkerEvent::Add { .. }))
                .map(|(t, _)| *t)
                .next();
            if let Some(a) = add_after {
                assert!(
                    a <= r + SimDuration::from_secs(1),
                    "replacement at {a} should be ready by revocation at {r}"
                );
            }
        }
    }

    #[test]
    fn cost_accrues_and_shutdown_stops_it() {
        let (mut nm, handle, start) = launch_nm(Box::new(BatchSelection), 4);
        let mid = start + SimDuration::from_hours(10);
        let _ = nm.events(start, mid);
        let c1 = handle.compute_cost(mid);
        assert!(c1 > 0.0);
        handle.shutdown(mid);
        let c2 = handle.compute_cost(mid + SimDuration::from_hours(10));
        // Terminated instances stop accruing (allow the final billed hour).
        assert!(c2 <= c1 + 4.0 * handle.on_demand_price());
    }

    #[test]
    fn next_event_strictly_advances() {
        let (mut nm, _h, start) = launch_nm(Box::new(BatchSelection), 2);
        let t = nm.next_event_after(start).unwrap();
        assert!(t > start);
    }

    #[test]
    fn ft_shared_mttf_published() {
        let catalog = MarketCatalog::synthetic_ec2(13, SimDuration::from_days(60));
        let cloud = CloudSim::with_seed(catalog, 13);
        let start = SimTime::ZERO + SimDuration::from_days(14);
        let ft = new_shared(SimDuration::MAX);
        let (_nm, _handle) = NodeManager::launch(
            cloud,
            Box::new(BatchSelection),
            BidPolicy::OnDemandPrice,
            SelectionConfig::default(),
            JobProfile::default(),
            StorageConfig::default(),
            6,
            ft.clone(),
            start,
        );
        let mttf = ft.lock().mttf;
        assert!(
            mttf < SimDuration::MAX,
            "spot cluster must have finite MTTF"
        );
        assert!(mttf > SimDuration::from_hours(1));
    }
}
