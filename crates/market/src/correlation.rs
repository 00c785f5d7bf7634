//! Price-spike correlation between markets.
//!
//! Flint's interactive policy (Policy 2, §3.2) spreads a cluster across
//! markets whose prices are *pairwise uncorrelated* so revocations do not
//! strike every server at once. Correlation is estimated on spike
//! indicators rather than raw prices: what matters for revocations is
//! whether two markets spike *at the same time*, not whether their steady
//! states co-move.

use flint_simtime::{SimDuration, SimTime};

use crate::PriceTrace;

/// Sampling step for spike-correlation estimation.
pub const CORRELATION_STEP: SimDuration = SimDuration::from_mins(10);

/// Spike threshold as a multiple of the window mean price: a sample
/// above `SPIKE_THRESHOLD ×` mean counts as a spike.
pub const SPIKE_THRESHOLD: f64 = 2.0;

/// Largest pairwise spike correlation admitted into the uncorrelated
/// candidate set `L` (§3.2.2); also the grouping threshold for
/// correlated markets.
pub const MAX_CORRELATION: f64 = 0.25;

/// Pearson correlation of the two traces' above-threshold indicators,
/// sampled every `step` over `[from, to)`.
///
/// Each trace is reduced to a 0/1 series — "is the price above
/// `threshold_frac` × its window mean?" — and the correlation of those
/// series is returned. Degenerate series (no spikes in either market)
/// yield `0.0`.
///
/// # Examples
///
/// ```
/// use flint_market::{pairwise_correlation, PriceTrace};
/// use flint_simtime::{SimDuration, SimTime};
///
/// let a = PriceTrace::flat(0.1);
/// let b = PriceTrace::flat(0.1);
/// let rho = pairwise_correlation(
///     &a, &b,
///     SimTime::ZERO, SimTime::from_hours_f64(24.0),
///     SimDuration::from_mins(5), 2.0,
/// );
/// assert_eq!(rho, 0.0); // neither market ever spikes
/// ```
pub fn pairwise_correlation(
    a: &PriceTrace,
    b: &PriceTrace,
    from: SimTime,
    to: SimTime,
    step: SimDuration,
    threshold_frac: f64,
) -> f64 {
    let xs = spike_indicator(a, from, to, step, threshold_frac);
    let ys = spike_indicator(b, from, to, step, threshold_frac);
    pearson(&xs, &ys)
}

fn spike_indicator(
    t: &PriceTrace,
    from: SimTime,
    to: SimTime,
    step: SimDuration,
    threshold_frac: f64,
) -> Vec<f64> {
    let mean = t.mean_price(from, to);
    let threshold = mean * threshold_frac;
    t.sample(from, to, step)
        .into_iter()
        .map(|p| if p > threshold { 1.0 } else { 0.0 })
        .collect()
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Computes the full pairwise spike-correlation matrix for `traces`.
///
/// Entry `[i][j]` is the correlation between traces `i` and `j`; the
/// diagonal is `1.0` whenever market `i` has any spikes (else `0.0`).
pub fn correlation_matrix(
    traces: &[&PriceTrace],
    from: SimTime,
    to: SimTime,
    step: SimDuration,
    threshold_frac: f64,
) -> Vec<Vec<f64>> {
    let indicators: Vec<Vec<f64>> = traces
        .iter()
        .map(|t| spike_indicator(t, from, to, step, threshold_frac))
        .collect();
    let n = traces.len();
    let mut m = vec![vec![0.0; n]; n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in i..n {
            let r = pearson(&indicators[i], &indicators[j]);
            m[i][j] = r;
            m[j][i] = r;
        }
    }
    m
}

/// Greedily selects up to `max_size` indices whose pairwise correlations
/// all stay at or below `max_corr`.
///
/// This is Flint's construction of the candidate set `L` (§3.2.2):
/// markets are visited in the given order (callers pre-sort by expected
/// cost) and added if they are sufficiently uncorrelated with everything
/// already chosen.
///
/// # Examples
///
/// ```
/// use flint_market::greedy_uncorrelated_subset;
///
/// // Market 1 is strongly correlated with market 0; market 2 is not.
/// let corr = vec![
///     vec![1.0, 0.9, 0.05],
///     vec![0.9, 1.0, 0.10],
///     vec![0.05, 0.10, 1.0],
/// ];
/// assert_eq!(greedy_uncorrelated_subset(&corr, 0.2, 8), vec![0, 2]);
/// ```
#[allow(clippy::needless_range_loop)]
pub fn greedy_uncorrelated_subset(corr: &[Vec<f64>], max_corr: f64, max_size: usize) -> Vec<usize> {
    let n = corr.len();
    let mut chosen: Vec<usize> = Vec::new();
    for i in 0..n {
        if chosen.len() >= max_size {
            break;
        }
        if chosen.iter().all(|&j| corr[i][j].abs() <= max_corr) {
            chosen.push(i);
        }
    }
    chosen
}

/// Partitions market indices into correlated groups: connected
/// components of the graph whose edges join pairs with
/// `|corr[i][j]| > threshold`.
///
/// Markets in one group tend to spike together, so a mass-revocation
/// event striking one of them plausibly strikes them all — chaos
/// campaigns use these groups to build correlated revocation schedules,
/// and cooldown policies can exclude a whole group after one member
/// fails. Groups are returned in ascending order of their smallest
/// member; singleton groups are included.
///
/// # Examples
///
/// ```
/// use flint_market::correlated_groups;
///
/// // 0 and 1 spike together; 2 is independent.
/// let corr = vec![
///     vec![1.0, 0.9, 0.05],
///     vec![0.9, 1.0, 0.10],
///     vec![0.05, 0.10, 1.0],
/// ];
/// assert_eq!(correlated_groups(&corr, 0.25), vec![vec![0, 1], vec![2]]);
/// ```
pub fn correlated_groups(corr: &[Vec<f64>], threshold: f64) -> Vec<Vec<usize>> {
    let n = corr.len();
    let mut group_of: Vec<usize> = (0..n).collect();
    // Union-find with path halving; small n, so simplicity over rank.
    fn find(g: &mut [usize], mut i: usize) -> usize {
        while g[i] != i {
            g[i] = g[g[i]];
            i = g[i];
        }
        i
    }
    for (i, row) in corr.iter().enumerate() {
        for (j, c) in row.iter().enumerate().skip(i + 1) {
            if c.abs() > threshold {
                let (ri, rj) = (find(&mut group_of, i), find(&mut group_of, j));
                if ri != rj {
                    group_of[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index_of: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for i in 0..n {
        let root = find(&mut group_of, i);
        match index_of.get(&root) {
            Some(&gi) => groups[gi].push(i),
            None => {
                index_of.insert(root, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, TraceProfile};

    fn horizon() -> SimTime {
        SimTime::ZERO + SimDuration::from_days(60)
    }

    fn step() -> SimDuration {
        SimDuration::from_mins(10)
    }

    #[test]
    fn identical_spiky_traces_fully_correlated() {
        let g = TraceGenerator::new(8, horizon());
        let p = TraceProfile::volatile(0.35);
        let t = g.generate("m", &p);
        let r = pairwise_correlation(&t, &t, SimTime::ZERO, horizon(), step(), 2.0);
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_traces_weakly_correlated() {
        let g = TraceGenerator::new(8, horizon());
        let p = TraceProfile::volatile(0.35);
        let a = g.generate("a", &p);
        let b = g.generate("b", &p);
        let r = pairwise_correlation(&a, &b, SimTime::ZERO, horizon(), step(), 2.0);
        assert!(
            r.abs() < 0.25,
            "independent traces should decorrelate, got {r}"
        );
    }

    #[test]
    fn shared_spikes_raise_correlation() {
        let g = TraceGenerator::new(8, horizon());
        let p = TraceProfile::volatile(0.35);
        let ts = g.generate_correlated("grp", &["a", "b"], &p, 0.9);
        let r = pairwise_correlation(&ts[0], &ts[1], SimTime::ZERO, horizon(), step(), 2.0);
        assert!(r > 0.5, "rho=0.9 family should correlate strongly, got {r}");
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let g = TraceGenerator::new(8, horizon());
        let p = TraceProfile::volatile(0.35);
        let a = g.generate("a", &p);
        let b = g.generate("b", &p);
        let c = g.generate("c", &p);
        let m = correlation_matrix(&[&a, &b, &c], SimTime::ZERO, horizon(), step(), 2.0);
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            assert!((m[i][i] - 1.0).abs() < 1e-9);
            for j in 0..3 {
                assert!((m[i][j] - m[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn greedy_subset_respects_cap_and_size() {
        let corr = vec![
            vec![1.0, 0.8, 0.1, 0.1],
            vec![0.8, 1.0, 0.1, 0.1],
            vec![0.1, 0.1, 1.0, 0.1],
            vec![0.1, 0.1, 0.1, 1.0],
        ];
        assert_eq!(greedy_uncorrelated_subset(&corr, 0.5, 10), vec![0, 2, 3]);
        assert_eq!(greedy_uncorrelated_subset(&corr, 0.5, 2), vec![0, 2]);
        // With a permissive cap everything is admitted.
        assert_eq!(greedy_uncorrelated_subset(&corr, 1.0, 10), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pearson_handles_degenerate_input() {
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[0.0, 1.0, 0.0]), 0.0);
    }

    #[test]
    fn correlated_groups_are_transitive_components() {
        // 0–1 and 1–3 are edges, so {0, 1, 3} is one group even though
        // 0–3 alone fall below the threshold; 2 stands alone.
        let corr = vec![
            vec![1.0, 0.8, 0.0, 0.1],
            vec![0.8, 1.0, 0.0, 0.9],
            vec![0.0, 0.0, 1.0, 0.0],
            vec![0.1, 0.9, 0.0, 1.0],
        ];
        assert_eq!(correlated_groups(&corr, 0.5), vec![vec![0, 1, 3], vec![2]]);
        // A permissive threshold leaves everything independent.
        assert_eq!(
            correlated_groups(&corr, 1.0),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
        assert!(correlated_groups(&[], 0.5).is_empty());
    }
}
