//! Closed-form reference graphs with known triangle counts.
//!
//! These anchor the repository's verification strategy: every counting
//! path (dense, sliced, simulated) must reproduce the closed-form counts.

use crate::csr::CsrGraph;

/// The 4-vertex, 5-edge graph of the paper's Fig. 2, with exactly two
/// triangles (`0–1–2` and `1–2–3`).
///
/// # Example
///
/// ```
/// use tcim_graph::generators::classic;
///
/// let g = classic::fig2_example();
/// assert_eq!(g.vertex_count(), 4);
/// assert_eq!(g.edge_count(), 5);
/// ```
pub fn fig2_example() -> CsrGraph {
    CsrGraph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        .expect("static edge list is valid")
}

/// The complete graph `K_n`, with `C(n, 3)` triangles.
pub fn complete(n: usize) -> CsrGraph {
    let edges = (0..n as u32).flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)));
    CsrGraph::from_edges(n, edges).expect("generated edges are in bounds")
}

/// Number of triangles in `K_n`: `n·(n−1)·(n−2)/6`.
pub fn complete_triangles(n: usize) -> u64 {
    let n = n as u64;
    if n < 3 {
        0
    } else {
        n * (n - 1) * (n - 2) / 6
    }
}

/// The star `S_n` (one hub, `n − 1` leaves): zero triangles.
pub fn star(n: usize) -> CsrGraph {
    let edges = (1..n as u32).map(|v| (0, v));
    CsrGraph::from_edges(n, edges).expect("generated edges are in bounds")
}

/// The cycle `C_n`: one triangle for `n = 3`, zero otherwise.
pub fn cycle(n: usize) -> CsrGraph {
    let edges = (0..n as u32).map(|u| (u, (u + 1) % n as u32));
    CsrGraph::from_edges(n, edges).expect("generated edges are in bounds")
}

/// The wheel `W_n` (cycle of `n − 1` rim vertices plus a hub): `n − 1`
/// triangles for `n ≥ 4`.
pub fn wheel(n: usize) -> CsrGraph {
    assert!(n >= 4, "a wheel needs at least 4 vertices");
    let rim = n as u32 - 1;
    let spokes = (1..n as u32).map(|v| (0, v));
    let rim_edges = (0..rim).map(move |i| (1 + i, 1 + (i + 1) % rim));
    CsrGraph::from_edges(n, spokes.chain(rim_edges)).expect("generated edges are in bounds")
}

/// The complete bipartite graph `K_{a,b}`: triangle-free.
pub fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
    let edges =
        (0..a as u32).flat_map(move |u| (a as u32..(a + b) as u32).map(move |v| (u, v)));
    CsrGraph::from_edges(a + b, edges).expect("generated edges are in bounds")
}

/// The path `P_n`: triangle-free.
pub fn path(n: usize) -> CsrGraph {
    let edges = (0..n.saturating_sub(1) as u32).map(|u| (u, u + 1));
    CsrGraph::from_edges(n, edges).expect("generated edges are in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape() {
        let g = fig2_example();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.vertices().all(|v| g.degree(v) == 5));
        assert_eq!(complete_triangles(6), 20);
        assert_eq!(complete_triangles(2), 0);
    }

    #[test]
    fn star_and_cycle_shapes() {
        assert_eq!(star(10).edge_count(), 9);
        assert_eq!(cycle(10).edge_count(), 10);
        assert_eq!(cycle(10).degree(0), 2);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(7); // hub + 6 rim
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(0), 6);
        assert!(g.vertices().skip(1).all(|v| g.degree(v) == 3));
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn wheel_too_small_panics() {
        wheel(3);
    }

    #[test]
    fn bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.vertex_count(), 7);
        assert_eq!(g.edge_count(), 12);
    }

    #[test]
    fn path_shape() {
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(0).edge_count(), 0);
    }
}
