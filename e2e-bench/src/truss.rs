//! The benchmark's own trussness reference: support peeling with a
//! worklist, independent of the program's motif engine.
//!
//! `tcim_graph::oracle::trussness` recomputes every support on every
//! pass; on `rmat(14, 160_000)` that takes about 25 s, a third of a run.
//! This computes the same decomposition in well under a second, and the
//! tests check it against the oracle.

use std::collections::HashMap;

use tcim_graph::CsrGraph;

/// Per-edge trussness as `(u, v, trussness)` with `u < v`, ascending —
/// the oracle's format and convention (2 for edges in no triangle).
pub fn trussness(g: &CsrGraph) -> Vec<(u32, u32, u32)> {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.sort_unstable();
    let id: HashMap<(u32, u32), usize> =
        edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let edge_id = |a: u32, b: u32| id.get(&(a.min(b), a.max(b))).copied();
    let neighbours: Vec<Vec<(u32, usize)>> = g
        .vertices()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .map(|&w| (w, edge_id(v, w).expect("every neighbour pair is an edge")))
                .collect()
        })
        .collect();

    // Edges (u, w) and (v, w) closing a triangle on the live edge (u, v).
    let closing = |u: u32, v: u32, alive: &[bool]| -> Vec<(usize, usize)> {
        let (small, other) = if neighbours[u as usize].len() <= neighbours[v as usize].len() {
            (u, v)
        } else {
            (v, u)
        };
        neighbours[small as usize]
            .iter()
            .filter(|&&(w, e1)| w != other && alive[e1])
            .filter_map(|&(w, e1)| {
                edge_id(other, w).filter(|&e2| alive[e2]).map(|e2| (e1, e2))
            })
            .collect()
    };

    let mut alive = vec![true; edges.len()];
    let mut support: Vec<u64> =
        edges.iter().map(|&(u, v)| closing(u, v, &alive).len() as u64).collect();
    let mut truss = vec![0u32; edges.len()];
    let mut remaining = edges.len();
    let mut k = 3u32;
    while remaining > 0 {
        // Peel to a fixpoint at level k: edges closing fewer than k − 2
        // triangles among the live edges have trussness k − 1.
        let floor = u64::from(k - 2);
        let mut work: Vec<usize> =
            (0..edges.len()).filter(|&e| alive[e] && support[e] < floor).collect();
        while let Some(e) = work.pop() {
            if !alive[e] {
                continue;
            }
            let (u, v) = edges[e];
            for (e1, e2) in closing(u, v, &alive) {
                for f in [e1, e2] {
                    support[f] -= 1;
                    if support[f] + 1 == floor {
                        work.push(f);
                    }
                }
            }
            alive[e] = false;
            truss[e] = k - 1;
            remaining -= 1;
        }
        k += 1;
    }
    edges.into_iter().zip(truss).map(|((u, v), t)| (u, v, t)).collect()
}

#[cfg(test)]
mod tests {
    use tcim_graph::generators::{barabasi_albert, classic, gnm, rmat, RmatParams};

    #[test]
    fn matches_the_oracle() {
        let graphs = [
            classic::fig2_example(),
            classic::wheel(12),
            gnm(300, 2_400, 3).unwrap(),
            barabasi_albert(400, 6, 5).unwrap(),
            rmat(9, 3_000, RmatParams::default(), 7).unwrap(),
        ];
        for g in &graphs {
            assert_eq!(super::trussness(g), tcim_graph::oracle::trussness(g));
        }
    }
}
