//! Heavy-edge matching (HEM) coarsening.
//!
//! The classic multilevel first phase (Karypis & Kumar): repeatedly contract
//! a matching that prefers heavy edges, so that the edge weight hidden
//! inside coarse vertices — weight refinement can no longer cut — is
//! maximized.

use crate::graph::CsrGraph;
use ptts::CounterRng;

/// One coarsening level: the coarse graph and the fine→coarse vertex map.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The contracted graph.
    pub graph: CsrGraph,
    /// `map[v_fine] = v_coarse`.
    pub map: Vec<u32>,
}

/// Contract one heavy-edge matching. Returns `None` when the graph shrank
/// by less than 10% (coarsening has stalled, e.g. a star graph).
pub fn coarsen_once(g: &CsrGraph, seed: u64) -> Option<CoarseLevel> {
    let n = g.n();
    if n < 2 {
        return None;
    }
    // Random visitation order for matching (deterministic via seed).
    let mut order: Vec<u32> = (0..n).collect();
    let mut rng = CounterRng::from_key(&[seed, 0xC0A5]);
    // Fisher–Yates.
    for i in (1..n as usize).rev() {
        let j = rng.uniform_u64((i + 1) as u64) as usize;
        order.swap(i, j);
    }

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n as usize];
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, u32)> = None;
        for (u, w) in g.neighbors(v) {
            if mate[u as usize] == UNMATCHED && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }

    // Assign coarse ids: one per matched pair / singleton.
    let mut map = vec![UNMATCHED; n as usize];
    let mut next = 0u32;
    for v in 0..n {
        if map[v as usize] != UNMATCHED {
            continue;
        }
        let m = mate[v as usize];
        map[v as usize] = next;
        if m != v && m != UNMATCHED {
            map[m as usize] = next;
        }
        next += 1;
    }
    let coarse_n = next;
    if (coarse_n as f64) > 0.9 * n as f64 {
        return None;
    }

    Some(CoarseLevel {
        graph: contract(g, &mate, &map, coarse_n),
        map,
    })
}

/// Contract `g` along a matching in O(n + m). Coarse ids are walked in
/// ascending order; each one's members (its smaller fine id first, then
/// its mate) merge their rows through the `slot` mark array, summing
/// parallel edges with `saturating_add` (a saturating sum of unsigned
/// weights does not depend on order) and dropping edges that fall inside
/// the coarse vertex. The merged rows are unsorted; the transpose in
/// [`CsrGraph::from_symmetric_rows`] sorts them, so the coarse graph is
/// exactly what [`crate::GraphBuilder`] would build from the same edges.
fn contract(g: &CsrGraph, mate: &[u32], map: &[u32], coarse_n: u32) -> CsrGraph {
    const NONE: u32 = u32::MAX;
    let ncon = g.ncon();
    let mut vwgt = vec![0u64; coarse_n as usize * ncon];
    let mut xadj = Vec::with_capacity(coarse_n as usize + 1);
    xadj.push(0u32);
    let mut rows: Vec<(u32, u32)> = Vec::with_capacity(2 * g.m() as usize);
    let mut slot = vec![NONE; coarse_n as usize];
    for v in 0..g.n() {
        let m = mate[v as usize];
        if m < v {
            continue; // second member: merged with its mate
        }
        let cv = map[v as usize];
        debug_assert_eq!(cv as usize + 1, xadj.len(), "coarse ids ascend");
        let members = [v, m];
        let members = if m == v { &members[..1] } else { &members[..] };
        let base = cv as usize * ncon;
        let row_start = rows.len();
        for &x in members {
            for (acc, &w) in vwgt[base..base + ncon].iter_mut().zip(g.vwgts(x)) {
                *acc += w;
            }
            for (u, w) in g.neighbors(x) {
                let cu = map[u as usize];
                if cu == cv {
                    continue;
                }
                match slot[cu as usize] {
                    NONE => {
                        slot[cu as usize] = rows.len() as u32;
                        rows.push((cu, w));
                    }
                    s => rows[s as usize].1 = rows[s as usize].1.saturating_add(w),
                }
            }
        }
        for &(cu, _) in &rows[row_start..] {
            slot[cu as usize] = NONE;
        }
        xadj.push(rows.len() as u32);
    }
    CsrGraph::from_symmetric_rows(ncon, xadj, rows, vwgt)
}

/// Coarsen until at most `target_n` vertices remain or progress stalls.
/// Returns the levels from finest to coarsest.
pub fn coarsen_to(g: &CsrGraph, target_n: u32, seed: u64) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut round = 0u64;
    loop {
        let current = levels.last().map_or(g, |l| &l.graph);
        if current.n() <= target_n {
            break;
        }
        match coarsen_once(current, seed.wrapping_add(round)) {
            Some(level) => levels.push(level),
            None => break,
        }
        round += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::edge_weight;
    use crate::graph::{figure2_example, GraphBuilder};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn contraction_matches_builder_reference(
            core in 2u32..40,
            isolated in 0u32..40,
            ncon in 1usize..4,
            edges in proptest::collection::vec((0u32..1000, 0u32..1000, edge_weight()), 0..150),
            seed in 0u64..1000,
        ) {
            // A perfect-matching backbone on the first `core` vertices
            // keeps any maximal matching above 10% of the vertices, so
            // coarsening never stalls; the rest stay isolated.
            let n = core + isolated.min(core);
            let mut b = GraphBuilder::new(n, ncon);
            for v in 0..n {
                let ws: Vec<u64> = (0..ncon as u64).map(|c| (v as u64 * 7 + c) % 5).collect();
                b.set_vwgt(v, &ws);
            }
            for v in (1..core).step_by(2) {
                b.add_edge(v - 1, v, 1);
            }
            for &(u, v, w) in &edges {
                b.add_edge(u % core, v % core, w);
            }
            let g = b.build();
            let level = coarsen_once(&g, seed).expect("backbone matching shrinks n by > 10%");
            let mut reference = GraphBuilder::new(level.graph.n(), ncon);
            for v in 0..n {
                let cv = level.map[v as usize];
                for c in 0..ncon {
                    reference.add_vwgt(cv, c, g.vwgt(v, c));
                }
                for (u, w) in g.neighbors(v).filter(|&(u, _)| v < u) {
                    reference.add_edge(cv, level.map[u as usize], w);
                }
            }
            prop_assert_eq!(level.graph, reference.build());
        }
    }

    fn path_graph(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1);
        }
        b.build()
    }

    #[test]
    fn weights_conserved_across_levels() {
        let g = path_graph(64);
        let levels = coarsen_to(&g, 8, 1);
        assert!(!levels.is_empty());
        for level in &levels {
            level.graph.validate().unwrap();
        }
        let coarsest = &levels.last().unwrap().graph;
        assert_eq!(coarsest.total_weights(), g.total_weights());
        assert!(coarsest.n() <= 12, "coarsest n = {}", coarsest.n());
    }

    #[test]
    fn map_is_total_and_in_range() {
        let g = path_graph(33);
        let level = coarsen_once(&g, 2).unwrap();
        assert_eq!(level.map.len(), 33);
        let cn = level.graph.n();
        assert!(level.map.iter().all(|&c| c < cn));
        // Every coarse vertex has at least one fine vertex.
        let mut seen = vec![false; cn as usize];
        for &c in &level.map {
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn matching_halves_path_graph() {
        let g = path_graph(100);
        let level = coarsen_once(&g, 3).unwrap();
        // A path admits a near-perfect matching.
        assert!(level.graph.n() <= 66, "coarse n = {}", level.graph.n());
    }

    #[test]
    fn star_graph_stalls_gracefully() {
        // A star only admits one matched pair per round; shrinkage is
        // 1/n and coarsening must refuse rather than loop forever.
        let mut b = GraphBuilder::new(50, 1);
        for v in 0..50 {
            b.set_vwgt(v, &[1]);
        }
        for v in 1..50 {
            b.add_edge(0, v, 1);
        }
        let g = b.build();
        let levels = coarsen_to(&g, 4, 7);
        // Must terminate; the coarsest graph keeps total weight.
        if let Some(last) = levels.last() {
            assert_eq!(last.graph.total_weights(), g.total_weights());
        }
    }

    #[test]
    fn edge_weight_accumulates_on_contraction() {
        // Triangle with unit weights: contracting one edge produces a
        // single vertex pair joined by weight 2.
        let mut b = GraphBuilder::new(3, 1);
        for v in 0..3 {
            b.set_vwgt(v, &[1]);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 2, 1);
        let g = b.build();
        let level = coarsen_once(&g, 1).unwrap();
        assert_eq!(level.graph.n(), 2);
        assert_eq!(level.graph.total_edge_weight(), 2);
    }

    #[test]
    fn multiconstraint_weights_summed() {
        let mut b = GraphBuilder::new(4, 2);
        for v in 0..4 {
            b.set_vwgt(v, &[v as u64 + 1, 10 * (v as u64 + 1)]);
        }
        b.add_edge(0, 1, 5);
        b.add_edge(2, 3, 5);
        let g = b.build();
        let level = coarsen_once(&g, 1).unwrap();
        assert_eq!(level.graph.n(), 2);
        assert_eq!(level.graph.total_weights(), vec![10, 100]);
    }

    #[test]
    fn figure2_coarsens_validly() {
        let g = figure2_example();
        let levels = coarsen_to(&g, 4, 9);
        for l in &levels {
            l.graph.validate().unwrap();
        }
    }
}
