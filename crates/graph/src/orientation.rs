//! Edge orientations turning the undirected graph into the DAG whose
//! adjacency matrix drives Equation (5).
//!
//! The paper's Fig. 2 works on an *upper-triangular* adjacency matrix: each
//! undirected edge `{u, v}` is stored once as `A[min][max] = 1`. Under that
//! orientation `BitCount(AND(R_i, C_j))` for an arc `(i, j)` counts exactly
//! the common neighbours `k` with `i < k < j`, so every triangle is counted
//! exactly once and the per-edge results sum to `TC(G)` with no division.
//!
//! [`Orientation::Degree`] additionally relabels vertices by ascending
//! degree first — the classical trick that bounds the out-degree of the
//! oriented DAG and balances row/column density. The paper uses the natural
//! order; the degree order is one of the ablations
//! (`tcim_core::ablations::orientation_ablation`).

use crate::csr::CsrGraph;

/// Strategy for orienting the undirected graph before counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Orientation {
    /// Orient each edge from the smaller to the larger vertex id
    /// (the paper's upper-triangular matrix).
    #[default]
    Natural,
    /// Relabel vertices by ascending degree (ties by id), then orient from
    /// smaller to larger new id.
    Degree,
    /// Relabel vertices in degeneracy (k-core peeling) order, then orient
    /// from smaller to larger new id. Bounds every out-degree by the
    /// graph's degeneracy — the strongest guarantee for the per-row work
    /// of the TCIM kernel.
    Degeneracy,
}

impl Orientation {
    /// Orients `g`, producing the DAG adjacency used by the TCIM kernel.
    pub fn orient(self, g: &CsrGraph) -> OrientedGraph {
        match self {
            Orientation::Natural => OrientedGraph::upper_triangular(g),
            Orientation::Degree => {
                let n = g.vertex_count();
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_by_key(|&v| (g.degree(v), v));
                // perm[old] = new rank.
                let mut perm = vec![0u32; n];
                for (rank, &v) in order.iter().enumerate() {
                    perm[v as usize] = rank as u32;
                }
                OrientedGraph::with_permutation(g, &perm)
            }
            Orientation::Degeneracy => {
                let perm = degeneracy_order(g);
                OrientedGraph::with_permutation(g, &perm)
            }
        }
    }
}

/// Computes the degeneracy (k-core peeling) permutation with the classic
/// bucket algorithm in `O(n + m)`: repeatedly remove a vertex of minimum
/// remaining degree. Returns `perm[old_id] = peel rank`.
fn degeneracy_order(g: &CsrGraph) -> Vec<u32> {
    let n = g.vertex_count();
    let mut degree: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_degree + 1];
    for v in 0..n as u32 {
        buckets[degree[v as usize]].push(v);
    }
    let mut removed = vec![false; n];
    let mut perm = vec![0u32; n];
    let mut cursor = 0usize; // lowest possibly non-empty bucket
    for rank in 0..n as u32 {
        // Find the minimum-degree live vertex. `cursor` only moves down by
        // one per neighbour update, keeping the total cost linear.
        let v = loop {
            match buckets[cursor].pop() {
                Some(v) if !removed[v as usize] && degree[v as usize] == cursor => break v,
                Some(_) => continue, // stale entry
                None => cursor += 1,
            }
        };
        removed[v as usize] = true;
        perm[v as usize] = rank;
        for &w in g.neighbors(v) {
            let dw = &mut degree[w as usize];
            if !removed[w as usize] && *dw > 0 {
                *dw -= 1;
                buckets[*dw].push(w);
                cursor = cursor.min(*dw);
            }
        }
    }
    perm
}

/// The oriented (DAG) form of an undirected graph: for every vertex `i`,
/// the sorted list of arc heads `j > i`.
///
/// This is precisely the row structure of the upper-triangular adjacency
/// matrix the paper slices and maps into MRAM. When the orientation
/// relabelled vertices (degree/degeneracy order), the graph remembers the
/// mapping so per-vertex results can be translated back
/// ([`OrientedGraph::original_id`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OrientedGraph {
    rows: Vec<Vec<u32>>,
    /// `original[new_id] = old_id`; `None` for the identity relabelling.
    original: Option<Vec<u32>>,
}

impl OrientedGraph {
    fn upper_triangular(g: &CsrGraph) -> Self {
        let rows = g
            .vertices()
            .map(|u| g.neighbors(u).iter().copied().filter(|&v| v > u).collect::<Vec<u32>>())
            .collect();
        OrientedGraph { rows, original: None }
    }

    fn with_permutation(g: &CsrGraph, perm: &[u32]) -> Self {
        let relabelled = g.relabel(perm);
        let mut original = vec![0u32; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            original[new as usize] = old as u32;
        }
        OrientedGraph {
            original: Some(original),
            ..OrientedGraph::upper_triangular(&relabelled)
        }
    }

    /// Maps a vertex id of the oriented graph back to the id in the input
    /// graph (identity for [`Orientation::Natural`]).
    ///
    /// # Panics
    ///
    /// Panics when `new_id` is out of bounds.
    pub fn original_id(&self, new_id: u32) -> u32 {
        match &self.original {
            Some(map) => map[new_id as usize],
            None => new_id,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of arcs — equal to the undirected edge count.
    pub fn arc_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The sorted arc heads of vertex `i` (`{j : A[i][j] = 1}`).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn row(&self, i: u32) -> &[u32] {
        &self.rows[i as usize]
    }

    /// All rows as a slice, ready for `SlicedMatrix::from_adjacency`.
    pub fn rows(&self) -> &[Vec<u32>] {
        &self.rows
    }

    /// Iterates over all arcs `(i, j)` in row-major order — the iteration
    /// order of Algorithm 1.
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&j| (i as u32, j)))
    }

    /// Maximum out-degree of the DAG (bounds the paper's per-row work).
    pub fn max_out_degree(&self) -> usize {
        self.rows.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn natural_orientation_is_upper_triangular() {
        let g = classic::fig2_example();
        let o = Orientation::Natural.orient(&g);
        assert_eq!(o.row(0), &[1, 2]);
        assert_eq!(o.row(1), &[2, 3]);
        assert_eq!(o.row(2), &[3]);
        assert_eq!(o.row(3), &[] as &[u32]);
        assert_eq!(o.arc_count(), g.edge_count());
    }

    #[test]
    fn arcs_point_upward() {
        let g = classic::complete(20);
        for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy]
        {
            let o = orientation.orient(&g);
            assert!(o.arcs().all(|(i, j)| i < j));
            assert_eq!(o.arc_count(), g.edge_count());
        }
    }

    #[test]
    fn degeneracy_orientation_bounds_out_degree_by_core_number() {
        // A wheel has degeneracy 3 (rim vertices peel at degree 3); the
        // hub's natural out-degree is n−1 but degeneracy order caps it.
        let g = classic::wheel(50);
        let o = Orientation::Degeneracy.orient(&g);
        assert!(o.max_out_degree() <= 3, "max out-degree {}", o.max_out_degree());
        // And a complete graph's degeneracy is n−1, trivially satisfied.
        let k = classic::complete(10);
        let ok = Orientation::Degeneracy.orient(&k);
        assert_eq!(ok.max_out_degree(), 9);
    }

    #[test]
    fn degeneracy_on_star_points_leaves_at_hub() {
        let g = classic::star(64);
        let o = Orientation::Degeneracy.orient(&g);
        assert_eq!(o.max_out_degree(), 1);
        assert_eq!(o.arc_count(), 63);
    }

    #[test]
    fn degree_orientation_bounds_star_out_degree() {
        // Star with hub 0: natural orientation gives the hub out-degree n-1;
        // degree orientation moves the hub last, so every leaf points at it
        // and the max out-degree drops to 1.
        let g = classic::star(100);
        let natural = Orientation::Natural.orient(&g);
        assert_eq!(natural.max_out_degree(), 99);
        let degree = Orientation::Degree.orient(&g);
        assert_eq!(degree.max_out_degree(), 1);
    }

    #[test]
    fn orientation_preserves_arc_count() {
        let g = classic::wheel(13);
        let a = Orientation::Natural.orient(&g).arc_count();
        let b = Orientation::Degree.orient(&g).arc_count();
        assert_eq!(a, g.edge_count());
        assert_eq!(b, g.edge_count());
    }

    #[test]
    fn original_id_roundtrips() {
        let g = classic::wheel(12);
        for orientation in [Orientation::Natural, Orientation::Degree, Orientation::Degeneracy]
        {
            let o = orientation.orient(&g);
            // Every original id appears exactly once under the mapping.
            let mut seen: Vec<u32> =
                (0..o.vertex_count() as u32).map(|v| o.original_id(v)).collect();
            seen.sort_unstable();
            let expected: Vec<u32> = (0..g.vertex_count() as u32).collect();
            assert_eq!(seen, expected, "{orientation:?}");
        }
        // Natural is the identity.
        let o = Orientation::Natural.orient(&g);
        assert_eq!(o.original_id(5), 5);
    }

    #[test]
    fn empty_graph_orients_to_empty_dag() {
        let g = CsrGraph::from_edges(0, []).unwrap();
        let o = Orientation::Natural.orient(&g);
        assert_eq!(o.vertex_count(), 0);
        assert_eq!(o.arc_count(), 0);
        assert_eq!(o.max_out_degree(), 0);
    }
}
