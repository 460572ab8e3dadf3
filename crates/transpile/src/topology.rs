//! Device coupling graphs: linear, grid and IBM heavy-hex families.

use serde::{Deserialize, Serialize};

use crate::TranspileError;

/// The exact coupling map of IBM's 27-qubit Falcon processors
/// (Montreal, Toronto, Mumbai, Auckland, Hanoi, Cairo).
pub const FALCON_27_EDGES: [(usize, usize); 28] = [
    (0, 1),
    (1, 2),
    (1, 4),
    (2, 3),
    (3, 5),
    (4, 7),
    (5, 8),
    (6, 7),
    (7, 10),
    (8, 9),
    (8, 11),
    (10, 12),
    (11, 14),
    (12, 13),
    (12, 15),
    (13, 14),
    (14, 16),
    (15, 18),
    (16, 19),
    (17, 18),
    (18, 21),
    (19, 20),
    (19, 22),
    (21, 23),
    (22, 25),
    (23, 24),
    (24, 25),
    (25, 26),
];

/// An undirected coupling graph over physical qubits, with precomputed
/// all-pairs shortest-path distances (the routing heuristic's oracle).
///
/// Every adjacency entry also records its coupler's index in
/// [`Topology::edges`], so a per-coupler lookup (a CNOT's calibration)
/// reads one qubit's few neighbours instead of scanning the edge list.
///
/// # Example
///
/// ```
/// use fq_transpile::Topology;
///
/// let t = Topology::grid(3, 3)?;
/// assert_eq!(t.num_qubits(), 9);
/// assert_eq!(t.distance(0, 8), 4); // Manhattan distance on the grid
/// assert!(t.are_adjacent(0, 1));
/// # Ok::<(), fq_transpile::TranspileError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
    /// `couplers[q][k]` is the index in `edges` of the coupler between
    /// `q` and `adjacency[q][k]`.
    couplers: Vec<Vec<usize>>,
    distance: Vec<Vec<u16>>,
}

impl Topology {
    /// Builds a topology from an undirected edge list.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::QubitOutOfRange`] for out-of-range
    /// endpoints, [`TranspileError::InvalidParameters`] for self-loops, and
    /// [`TranspileError::Disconnected`] if the coupling graph is not
    /// connected (routing requires connectivity).
    pub fn from_edges(
        num_qubits: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Topology, TranspileError> {
        let mut adjacency = vec![Vec::new(); num_qubits];
        let mut couplers = vec![Vec::new(); num_qubits];
        let mut canonical = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for (a, b) in edges {
            for q in [a, b] {
                if q >= num_qubits {
                    return Err(TranspileError::QubitOutOfRange {
                        qubit: q,
                        num_qubits,
                    });
                }
            }
            if a == b {
                return Err(TranspileError::InvalidParameters(format!(
                    "self-loop on qubit {a}"
                )));
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                couplers[key.0].push(canonical.len());
                couplers[key.1].push(canonical.len());
                canonical.push(key);
                adjacency[key.0].push(key.1);
                adjacency[key.1].push(key.0);
            }
        }
        let distance = all_pairs_bfs(num_qubits, &adjacency)?;
        Ok(Topology {
            num_qubits,
            edges: canonical,
            adjacency,
            couplers,
            distance,
        })
    }

    /// A 1-D chain of `n` qubits.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidParameters`] when `n == 0`.
    pub fn linear(n: usize) -> Result<Topology, TranspileError> {
        if n == 0 {
            return Err(TranspileError::InvalidParameters(
                "linear topology needs qubits".into(),
            ));
        }
        Topology::from_edges(n, (1..n).map(|i| (i - 1, i)))
    }

    /// A `rows × cols` rectangular grid — the architecture of Fig. 3 and of
    /// the 50×50 practical-scale study (§6).
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidParameters`] for an empty grid.
    pub fn grid(rows: usize, cols: usize) -> Result<Topology, TranspileError> {
        if rows == 0 || cols == 0 {
            return Err(TranspileError::InvalidParameters(
                "grid needs positive dimensions".into(),
            ));
        }
        let idx = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Topology::from_edges(rows * cols, edges)
    }

    /// The 27-qubit IBM Falcon heavy-hex coupling map.
    #[must_use]
    pub fn falcon_27() -> Topology {
        Topology::from_edges(27, FALCON_27_EDGES).expect("static map is valid")
    }

    /// A heavy-hex-style lattice built from horizontal rows of qubits with
    /// dedicated bridge qubits between consecutive rows.
    ///
    /// Row `r` contributes `row_lengths[r]` qubits; between rows `r` and
    /// `r+1`, bridge qubits sit at columns `c ≡ 2·(r mod 2) (mod 4)` that
    /// exist in both rows. This reproduces the degree ≤ 3 sparse structure
    /// of IBM's Hummingbird/Eagle devices.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidParameters`] for fewer than one row
    /// or rows shorter than 3, and [`TranspileError::Disconnected`] if a
    /// gap ends up with no bridges.
    pub fn heavy_hex_rows(row_lengths: &[usize]) -> Result<Topology, TranspileError> {
        if row_lengths.is_empty() || row_lengths.iter().any(|&l| l < 3) {
            return Err(TranspileError::InvalidParameters(
                "heavy-hex rows need length >= 3".into(),
            ));
        }
        let mut edges = Vec::new();
        let mut row_start = Vec::with_capacity(row_lengths.len());
        let mut next = 0usize;
        for &len in row_lengths {
            row_start.push(next);
            for c in 1..len {
                edges.push((next + c - 1, next + c));
            }
            next += len;
        }
        for r in 0..row_lengths.len() - 1 {
            let phase = 2 * (r % 2);
            let limit = row_lengths[r].min(row_lengths[r + 1]);
            for c in (phase..limit).step_by(4) {
                let bridge = next;
                next += 1;
                edges.push((row_start[r] + c, bridge));
                edges.push((bridge, row_start[r + 1] + c));
            }
        }
        Topology::from_edges(next, edges)
    }

    /// A 65-qubit heavy-hex lattice standing in for IBM Hummingbird
    /// (Brooklyn).
    #[must_use]
    pub fn hummingbird_65() -> Topology {
        // 4 rows of 14 = 56 qubits + gaps with 4/3/4 bridges = 67; trim the
        // last two bridge qubits of the middle gap to land exactly on 65
        // while staying connected.
        let full = Topology::heavy_hex_rows(&[14, 14, 14, 14]).expect("valid rows");
        full.without_qubits(&[full.num_qubits() - 1, full.num_qubits() - 2])
            .expect("trimming bridges keeps the lattice connected")
    }

    /// A 127-qubit heavy-hex lattice standing in for IBM Eagle
    /// (Washington).
    #[must_use]
    pub fn eagle_127() -> Topology {
        // 7 rows of 15 = 105 qubits + 6 gaps × 4 bridges = 129; trim two.
        let full = Topology::heavy_hex_rows(&[15, 15, 15, 15, 15, 15, 15]).expect("valid rows");
        full.without_qubits(&[full.num_qubits() - 1, full.num_qubits() - 2])
            .expect("trimming bridges keeps the lattice connected")
    }

    /// Removes the given qubits (re-indexing the rest densely).
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::QubitOutOfRange`] for bad indices and
    /// [`TranspileError::Disconnected`] if the remainder is disconnected.
    pub fn without_qubits(&self, remove: &[usize]) -> Result<Topology, TranspileError> {
        let removed: std::collections::BTreeSet<usize> = remove.iter().copied().collect();
        for &q in &removed {
            if q >= self.num_qubits {
                return Err(TranspileError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        let mut new_index = vec![usize::MAX; self.num_qubits];
        let mut n = 0usize;
        for (q, slot) in new_index.iter_mut().enumerate() {
            if !removed.contains(&q) {
                *slot = n;
                n += 1;
            }
        }
        let edges = self
            .edges
            .iter()
            .filter(|&&(a, b)| !removed.contains(&a) && !removed.contains(&b))
            .map(|&(a, b)| (new_index[a], new_index[b]));
        Topology::from_edges(n, edges.collect::<Vec<_>>())
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The canonical undirected edge list (`a < b`).
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbours of a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// The index in [`Topology::edges`] of each of `q`'s couplers,
    /// parallel to [`Topology::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub(crate) fn neighbor_couplers(&self, q: usize) -> &[usize] {
        &self.couplers[q]
    }

    /// The index in [`Topology::edges`] of the coupler between `a` and
    /// `b`, if they share one.
    pub(crate) fn coupler(&self, a: usize, b: usize) -> Option<usize> {
        let k = self.adjacency.get(a)?.iter().position(|&x| x == b)?;
        Some(self.couplers[a][k])
    }

    /// Whether two physical qubits share a coupler.
    #[must_use]
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        a < self.num_qubits && self.adjacency[a].contains(&b)
    }

    /// Shortest-path distance in couplers between two physical qubits.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        self.distance[a][b] as usize
    }

    /// The degree of each physical qubit.
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        self.adjacency.iter().map(Vec::len).collect()
    }
}

fn all_pairs_bfs(n: usize, adjacency: &[Vec<usize>]) -> Result<Vec<Vec<u16>>, TranspileError> {
    let mut dist = vec![vec![u16::MAX; n]; n];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        let row = &mut dist[start];
        row[start] = 0;
        queue.clear();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = row[u];
            for &v in &adjacency[u] {
                if row[v] == u16::MAX {
                    row[v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        if row.contains(&u16::MAX) {
            return Err(TranspileError::Disconnected(format!(
                "qubit {start} cannot reach the whole device"
            )));
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falcon_has_27_qubits_and_degree_at_most_3() {
        let t = Topology::falcon_27();
        assert_eq!(t.num_qubits(), 27);
        assert_eq!(t.edges().len(), 28);
        assert!(t.degrees().iter().all(|&d| d <= 3));
    }

    #[test]
    fn sized_lattices_match_ibm_counts() {
        assert_eq!(Topology::hummingbird_65().num_qubits(), 65);
        assert_eq!(Topology::eagle_127().num_qubits(), 127);
        assert!(Topology::eagle_127().degrees().iter().all(|&d| d <= 3));
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let t = Topology::grid(4, 5).unwrap();
        assert_eq!(t.num_qubits(), 20);
        // (0,0) -> (3,4): 3 + 4 = 7.
        assert_eq!(t.distance(0, 19), 7);
        assert_eq!(t.distance(7, 7), 0);
    }

    #[test]
    fn linear_chain_distance() {
        let t = Topology::linear(10).unwrap();
        assert_eq!(t.distance(0, 9), 9);
        assert!(t.are_adjacent(3, 4));
        assert!(!t.are_adjacent(3, 5));
    }

    #[test]
    fn rejects_disconnected_and_bad_edges() {
        assert!(matches!(
            Topology::from_edges(4, [(0, 1), (2, 3)]),
            Err(TranspileError::Disconnected(_))
        ));
        assert!(matches!(
            Topology::from_edges(2, [(0, 2)]),
            Err(TranspileError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            Topology::from_edges(2, [(1, 1)]),
            Err(TranspileError::InvalidParameters(_))
        ));
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let t = Topology::from_edges(2, [(0, 1), (1, 0)]).unwrap();
        assert_eq!(t.edges().len(), 1);
    }

    #[test]
    fn without_qubits_reindexes() {
        let t = Topology::linear(5).unwrap();
        let trimmed = t.without_qubits(&[4]).unwrap();
        assert_eq!(trimmed.num_qubits(), 4);
        assert_eq!(trimmed.distance(0, 3), 3);
        // Removing a middle qubit disconnects a chain.
        assert!(t.without_qubits(&[2]).is_err());
    }

    #[test]
    fn heavy_hex_bridge_structure() {
        let t = Topology::heavy_hex_rows(&[7, 7]).unwrap();
        // 14 row qubits + bridges at columns 0 and 4 = 16.
        assert_eq!(t.num_qubits(), 16);
        // Bridges give the row-ends a path between rows.
        assert!(t.distance(0, 7) >= 2);
    }
}
