//! Degree-distribution statistics for identifying power-law structure and
//! hotspots (§3.1, Fig. 1b).

use serde::{Deserialize, Serialize};

use crate::Graph;

/// Summary statistics of a graph's degree distribution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: usize,
    /// Minimum degree.
    pub min: usize,
    /// Continuous maximum-likelihood power-law exponent
    /// `α = 1 + n / Σ ln(d_i / (d_min − ½))` over nodes with `d_i ≥ d_min`,
    /// with `d_min = 1`. `None` for degenerate inputs.
    pub alpha_mle: Option<f64>,
    /// Ratio of the mean degree of the top-k hotspots (k = max(1, n/100))
    /// to the overall mean — the "10 busiest airports have 10× the average
    /// connectivity" statistic of Fig. 1b.
    pub hotspot_ratio: f64,
    /// Gini coefficient of the degree distribution (0 = uniform).
    pub gini: f64,
}

/// Computes [`DegreeStats`] for a graph.
///
/// # Example
///
/// ```
/// use fq_graphs::{gen, powerlaw::degree_stats};
///
/// let ba = gen::barabasi_albert(300, 1, 2).unwrap();
/// let reg = gen::random_regular(300, 4, 2).unwrap();
/// // A BA graph concentrates edges in hotspots; a regular graph cannot.
/// assert!(degree_stats(&ba).hotspot_ratio > degree_stats(&reg).hotspot_ratio);
/// assert_eq!(degree_stats(&reg).gini, 0.0);
/// ```
#[must_use]
pub fn degree_stats(graph: &Graph) -> DegreeStats {
    let degrees = graph.degrees();
    let n = degrees.len();
    if n == 0 {
        return DegreeStats {
            mean: 0.0,
            max: 0,
            min: 0,
            alpha_mle: None,
            hotspot_ratio: 0.0,
            gini: 0.0,
        };
    }
    let sum: usize = degrees.iter().sum();
    let mean = sum as f64 / n as f64;
    let max = *degrees.iter().max().expect("non-empty");
    let min = *degrees.iter().min().expect("non-empty");

    // Clauset–Shalizi–Newman continuous MLE with x_min = 1.
    let tail: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d >= 1)
        .map(|&d| d as f64)
        .collect();
    let alpha_mle = if tail.len() >= 2 {
        let s: f64 = tail.iter().map(|&d| (d / 0.5).ln()).sum();
        (s > 0.0).then(|| 1.0 + tail.len() as f64 / s)
    } else {
        None
    };

    let mut sorted = degrees.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k = (n / 100).max(1);
    let hotspot_mean = sorted[..k].iter().sum::<usize>() as f64 / k as f64;
    let hotspot_ratio = if mean > 0.0 { hotspot_mean / mean } else { 0.0 };

    // Gini over the ascending-sorted degrees.
    sorted.reverse();
    let gini = if sum == 0 {
        0.0
    } else {
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &d)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * d as f64)
            .sum();
        weighted / (n as f64 * sum as f64)
    };

    DegreeStats {
        mean,
        max,
        min,
        alpha_mle,
        hotspot_ratio,
        gini,
    }
}

/// The degree histogram: `histogram[d]` = number of nodes with degree `d`.
#[must_use]
pub fn degree_histogram(graph: &Graph) -> Vec<usize> {
    let degrees = graph.degrees();
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for d in degrees {
        hist[d] += 1;
    }
    hist
}

/// The top `k` hotspot nodes by degree (ties broken by lower index) —
/// exactly the nodes FrozenQubits freezes (§3.5).
#[must_use]
pub fn hotspots(graph: &Graph, k: usize) -> Vec<usize> {
    graph.nodes_by_degree().into_iter().take(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn ba_alpha_is_in_powerlaw_range() {
        let g = gen::barabasi_albert(1000, 1, 3).unwrap();
        let stats = degree_stats(&g);
        let alpha = stats.alpha_mle.expect("alpha defined");
        // BA graphs have theoretical exponent 3; MLE with x_min=1 lands lower
        // but must be clearly super-1.
        assert!(alpha > 1.2 && alpha < 4.5, "alpha = {alpha}");
        assert!(stats.gini > 0.2, "gini = {}", stats.gini);
    }

    #[test]
    fn regular_graph_has_zero_gini_and_unit_ratio() {
        let g = gen::random_regular(100, 3, 1).unwrap();
        let stats = degree_stats(&g);
        assert_eq!(stats.gini, 0.0);
        assert!((stats.hotspot_ratio - 1.0).abs() < 1e-12);
        assert_eq!(stats.max, 3);
        assert_eq!(stats.min, 3);
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let g = gen::barabasi_albert(64, 2, 4).unwrap();
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), 64);
    }

    #[test]
    fn hotspots_are_highest_degree() {
        let g = gen::star(10);
        assert_eq!(hotspots(&g, 1), vec![0]);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let stats = degree_stats(&Graph::new(0));
        assert_eq!(stats.mean, 0.0);
        assert_eq!(stats.alpha_mle, None);
    }
}
