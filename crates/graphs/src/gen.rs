//! Random and deterministic graph generators (§4.1, Fig. 6).
//!
//! All randomized generators are deterministic functions of their `seed`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::{Graph, GraphError};

/// Generates a Barabási–Albert preferential-attachment graph with `n`
/// nodes and attachment factor `d` (`d_BA` in the paper).
///
/// The process mirrors the widely used implementation: `d` initial isolated
/// nodes; every subsequent node attaches to `d` distinct existing nodes
/// sampled with probability proportional to their current degree (uniformly
/// for the first arrival). `d = 1` produces the sparse power-law trees the
/// paper uses as its primary benchmark; `d = 2, 3` produce the denser
/// variants of Fig. 10.
///
/// # Errors
///
/// Returns [`GraphError::InfeasibleParameters`] unless `1 ≤ d < n`.
///
/// # Example
///
/// ```
/// use fq_graphs::gen::barabasi_albert;
///
/// let g = barabasi_albert(50, 2, 1)?;
/// assert_eq!(g.num_edges(), 2 * (50 - 2)); // d·(n − d) attachments
/// assert!(g.is_connected());
/// # Ok::<(), fq_graphs::GraphError>(())
/// ```
pub fn barabasi_albert(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    if d == 0 || d >= n {
        return Err(GraphError::InfeasibleParameters(format!(
            "barabasi-albert requires 1 <= d < n, got d={d}, n={n}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    // Endpoint multiset: each node appears once per incident edge, so
    // uniform sampling from it is degree-proportional sampling.
    let mut repeated: Vec<usize> = Vec::with_capacity(2 * d * n);
    let mut targets: Vec<usize> = (0..d).collect();

    for source in d..n {
        for &t in &targets {
            g.add_edge(source, t)
                .expect("targets are distinct and valid");
            repeated.push(source);
            repeated.push(t);
        }
        // Sample d distinct next targets, degree-proportionally.
        let mut next = std::collections::BTreeSet::new();
        while next.len() < d {
            let pick = repeated[rng.random_range(0..repeated.len())];
            next.insert(pick);
        }
        targets = next.into_iter().collect();
    }
    Ok(g)
}

/// Generates a uniformly random `d`-regular graph via the configuration
/// (pairing) model with rejection, retried until a simple graph appears.
///
/// # Errors
///
/// Returns [`GraphError::InfeasibleParameters`] unless `n·d` is even and
/// `d < n`, and [`GraphError::GenerationFailed`] if 1,000 pairing attempts
/// all produce self-loops or parallel edges (practically unreachable for
/// the 3-regular instances used in the paper).
///
/// # Example
///
/// ```
/// use fq_graphs::gen::random_regular;
///
/// let g = random_regular(16, 3, 9)?;
/// assert!(g.degrees().iter().all(|&deg| deg == 3));
/// # Ok::<(), fq_graphs::GraphError>(())
/// ```
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    if !(n * d).is_multiple_of(2) || d >= n {
        return Err(GraphError::InfeasibleParameters(format!(
            "d-regular requires n*d even and d < n, got n={n}, d={d}"
        )));
    }
    if d == 0 {
        return Ok(Graph::new(n));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    'attempt: for _ in 0..1_000 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(&mut rng);
        let mut g = Graph::new(n);
        for pair in stubs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b || g.has_edge(a, b) {
                continue 'attempt;
            }
            g.add_edge(a, b).expect("checked simple");
        }
        return Ok(g);
    }
    Err(GraphError::GenerationFailed(format!(
        "no simple {d}-regular pairing found for n={n} after 1000 attempts"
    )))
}

/// The complete graph `K_n` — the topology of the fully-connected
/// Sherrington–Kirkpatrick (SK) model benchmarks.
#[must_use]
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(i, j).expect("complete graph edges are simple");
        }
    }
    g
}

/// The cycle `C_n`.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n).expect("simple by construction");
    }
    g
}

/// The path `P_n` (n − 1 edges).
#[must_use]
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(i - 1, i).expect("simple by construction");
    }
    g
}

/// The star `S_n`: node 0 is a maximal hotspot connected to all others —
/// the extreme case of the freezing argument (Fig. 1c is a 7-node star).
#[must_use]
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(0, i).expect("simple by construction");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_d1_is_a_connected_tree() {
        for seed in 0..5 {
            let g = barabasi_albert(30, 1, seed).unwrap();
            assert_eq!(g.num_edges(), 29);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn ba_edge_count_formula() {
        for d in 1..=3 {
            let g = barabasi_albert(20, d, 3).unwrap();
            assert_eq!(g.num_edges(), d * (20 - d));
        }
    }

    #[test]
    fn ba_is_deterministic_per_seed() {
        let a = barabasi_albert(40, 2, 5).unwrap();
        let b = barabasi_albert(40, 2, 5).unwrap();
        let c = barabasi_albert(40, 2, 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ba_rejects_bad_parameters() {
        assert!(barabasi_albert(5, 0, 0).is_err());
        assert!(barabasi_albert(5, 5, 0).is_err());
    }

    #[test]
    fn ba_produces_skewed_degrees() {
        // Power law: the max degree should far exceed the mean (≈2 for d=1).
        let g = barabasi_albert(200, 1, 11).unwrap();
        let max = *g.degrees().iter().max().unwrap();
        assert!(max >= 8, "expected a hotspot, max degree {max}");
    }

    #[test]
    fn regular_graphs_are_regular() {
        for seed in 0..3 {
            let g = random_regular(20, 3, seed).unwrap();
            assert!(g.degrees().iter().all(|&d| d == 3));
            assert_eq!(g.num_edges(), 30);
        }
    }

    #[test]
    fn regular_rejects_odd_total_degree() {
        assert!(random_regular(5, 3, 0).is_err());
        assert!(random_regular(4, 4, 0).is_err());
        assert_eq!(random_regular(4, 0, 0).unwrap().num_edges(), 0);
    }

    #[test]
    fn complete_graph_edge_count() {
        assert_eq!(complete(10).num_edges(), 45);
        assert_eq!(complete(1).num_edges(), 0);
    }

    #[test]
    fn fixed_shapes() {
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(path(5).num_edges(), 4);
        let s = star(7);
        assert_eq!(s.num_edges(), 6);
        assert_eq!(s.degree(0), 6);
        assert_eq!(s.nodes_by_degree()[0], 0);
    }
}
