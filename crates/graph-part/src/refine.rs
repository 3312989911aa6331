//! Greedy boundary refinement with multi-constraint balance.
//!
//! After each uncoarsening step the projected partition is improved by
//! moving boundary vertices between partitions. A move is accepted when it
//! reduces the edge cut without violating the balance limit, or when it
//! strictly improves the worst fullness (rebalancing moves). This is the
//! k-way analogue of Fiduccia–Mattheyses used by METIS's refinement phase.

use crate::graph::CsrGraph;
use crate::initpart::LoadTracker;
use crate::Partition;
use ptts::CounterRng;

/// Refinement parameters.
#[derive(Debug, Clone, Copy)]
pub struct RefineConfig {
    /// Balance limit: a partition may hold up to `ubfactor ×` the average
    /// load per constraint (METIS's default is 1.03–1.05; heavy-tailed
    /// graphs need more slack).
    pub ubfactor: f64,
    /// Maximum number of full passes over the boundary.
    pub max_passes: u32,
    /// RNG seed for visitation order.
    pub seed: u64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            ubfactor: 1.05,
            max_passes: 8,
            seed: 1,
        }
    }
}

/// Refine `p` in place. Returns the total cut improvement achieved.
pub fn refine(g: &CsrGraph, p: &mut Partition, cfg: &RefineConfig) -> u64 {
    refine_targets(g, p, cfg, None)
}

/// Like [`refine`] but with optional per-partition target fractions of the
/// total weight (recursive bisection refines 2-way cuts with unequal
/// sides). `None` means uniform.
pub fn refine_targets(
    g: &CsrGraph,
    p: &mut Partition,
    cfg: &RefineConfig,
    fractions: Option<&[f64]>,
) -> u64 {
    let n = g.n();
    let k = p.k;
    if k <= 1 || n == 0 {
        return 0;
    }
    let mut tracker = match fractions {
        Some(f) => {
            assert_eq!(f.len(), k as usize);
            LoadTracker::with_fractions(g, f)
        }
        None => LoadTracker::new(g, k),
    };
    for v in 0..n {
        tracker.add(g, p.assignment[v as usize], v);
    }

    // Per-vertex internal/external degrees (METIS's id/ed): edge weight
    // to the vertex's own partition, edge weight to other partitions, and
    // the number of neighbours in other partitions. Kept exact across
    // moves, they let most vertices skip the neighbour scan.
    let mut id = vec![0u64; n as usize];
    let mut ed = vec![0u64; n as usize];
    let mut ext = vec![0u32; n as usize];
    for v in 0..n {
        let pv = p.assignment[v as usize];
        let (mut internal, mut total, mut same) = (0u64, 0u64, 0u32);
        for (u, w) in g.neighbors(v) {
            let inside = p.assignment[u as usize] == pv;
            internal += if inside { w as u64 } else { 0 };
            total += w as u64;
            same += inside as u32;
        }
        id[v as usize] = internal;
        ed[v as usize] = total - internal;
        ext[v as usize] = g.degree(v) - same;
    }
    // Whether each partition is within the balance limit; changes only
    // when a move changes the loads.
    let mut within: Vec<bool> = (0..k)
        .map(|q| tracker.fullness(q) <= cfg.ubfactor)
        .collect();

    let mut rng = CounterRng::from_key(&[cfg.seed, 0x0EF1]);
    let mut order: Vec<u32> = (0..n).collect();
    let mut total_improvement = 0u64;
    // Scratch: connection weight of the current vertex to each partition,
    // maintained sparsely via a touched list.
    let mut conn = vec![0u64; k as usize];
    let mut touched: Vec<u32> = Vec::new();

    for _ in 0..cfg.max_passes {
        // Shuffle visitation order each pass.
        for i in (1..n as usize).rev() {
            let j = rng.uniform_u64((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        let mut pass_improvement = 0u64;
        let mut moved = false;
        // Least-full partition at pass start: the escape hatch for
        // *internal* vertices of overloaded partitions (e.g. a partition
        // holding the entire graph), which have no boundary candidates.
        let lightest = (0..k)
            .min_by(|&a, &b| {
                tracker
                    .fullness(a)
                    .partial_cmp(&tracker.fullness(b))
                    .unwrap()
            })
            .unwrap_or(0);

        for &v in &order {
            let from = p.assignment[v as usize];
            // Scan only vertices that can move. From a partition within
            // the limit, an interior vertex has no candidate, and one with
            // ed < id has only candidates of gain ≤ ed − id < 0, which are
            // accepted only from an overloaded partition. A count, not a
            // weight, decides "interior", so zero-weight edges still make
            // a vertex boundary.
            let vi = v as usize;
            if (ext[vi] == 0 || ed[vi] < id[vi]) && within[from as usize] {
                continue;
            }
            // Gather connection weights to neighboring partitions.
            touched.clear();
            for (u, w) in g.neighbors(v) {
                let pu = p.assignment[u as usize];
                if conn[pu as usize] == 0 {
                    touched.push(pu);
                }
                conn[pu as usize] += w as u64;
            }
            let from_fullness = tracker.fullness(from);
            let overloaded = from_fullness > cfg.ubfactor;
            let conn_from = conn[from as usize];

            // Best candidate partition among neighbors (plus the lightest
            // partition when the source is overloaded).
            let mut best: Option<(u32, i64, f64)> = None; // (to, gain, to_fullness_after)
            let extra = if overloaded && lightest != from && !touched.contains(&lightest) {
                Some(lightest)
            } else {
                None
            };
            for &to in touched.iter().chain(extra.iter()) {
                if to == from {
                    continue;
                }
                let gain = conn[to as usize] as i64 - conn_from as i64;
                let to_after = tracker.fullness_with(g, to, v);
                let acceptable = if gain > 0 {
                    // Cut-improving: target must stay within the balance
                    // limit, or at least not become worse than the source
                    // already is (min-max fallback for infeasible graphs).
                    to_after <= cfg.ubfactor || to_after < from_fullness
                } else if gain == 0 {
                    // Balance-improving sideways move.
                    to_after < from_fullness - 1e-12
                } else {
                    // Cut-worsening move: only to drain an overloaded
                    // partition, and only if the target remains strictly
                    // less full than the source was.
                    overloaded && to_after < from_fullness - 1e-12
                };
                if acceptable {
                    match best {
                        Some((_, bg, bf)) if (bg, -bf) >= (gain, -to_after) => {}
                        _ => best = Some((to, gain, to_after)),
                    }
                }
            }
            if let Some((to, gain, _)) = best {
                tracker.remove(g, from, v);
                tracker.add(g, to, v);
                within[from as usize] = tracker.fullness(from) <= cfg.ubfactor;
                within[to as usize] = tracker.fullness(to) <= cfg.ubfactor;
                p.assignment[v as usize] = to;
                // Neighbours in `from` lose an internal edge, those in `to`
                // gain one; v's own degrees are recounted against `to`.
                let (mut v_id, mut v_ed, mut v_ext) = (0u64, 0u64, 0u32);
                for (u, w) in g.neighbors(v) {
                    let (ui, w) = (u as usize, w as u64);
                    let pu = p.assignment[ui];
                    if pu == from {
                        id[ui] -= w;
                        ed[ui] += w;
                        ext[ui] += 1;
                    } else if pu == to {
                        id[ui] += w;
                        ed[ui] -= w;
                        ext[ui] -= 1;
                    }
                    if pu == to {
                        v_id += w;
                    } else {
                        v_ed += w;
                        v_ext += 1;
                    }
                }
                (id[vi], ed[vi], ext[vi]) = (v_id, v_ed, v_ext);
                if gain > 0 {
                    pass_improvement += gain as u64;
                }
                moved = true;
            }
            for &t in &touched {
                conn[t as usize] = 0;
            }
        }
        total_improvement += pass_improvement;
        if !moved {
            break;
        }
    }
    total_improvement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::metrics::{imbalances, total_edge_cut};

    fn ring(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(n, 1);
        for v in 0..n {
            b.set_vwgt(v, &[1]);
        }
        for v in 0..n {
            b.add_edge(v, (v + 1) % n, 1);
        }
        b.build()
    }

    #[test]
    fn refinement_reduces_cut_of_scrambled_partition() {
        let g = ring(64);
        // Worst case: alternate partitions → cut = 64.
        let mut p = Partition {
            k: 2,
            assignment: (0..64).map(|v| v % 2).collect(),
        };
        let before = total_edge_cut(&g, &p);
        assert_eq!(before, 64);
        refine(&g, &mut p, &RefineConfig::default());
        let after = total_edge_cut(&g, &p);
        assert!(after < before, "cut {after} !< {before}");
        // Ring bisection optimum is 2; greedy should get close.
        assert!(after <= 8, "cut after refine = {after}");
        // Balance must be maintained.
        let imb = imbalances(&g, &p);
        assert!(imb[0] <= 1.1, "imbalance {}", imb[0]);
    }

    #[test]
    fn refinement_improves_cut_or_balance() {
        let g = ring(40);
        for seed in 0..5u64 {
            let mut rng = CounterRng::from_key(&[seed]);
            let mut p = Partition {
                k: 4,
                assignment: (0..40).map(|_| rng.uniform_u64(4) as u32).collect(),
            };
            let cut_before = total_edge_cut(&g, &p);
            let imb_before = imbalances(&g, &p)[0];
            refine(
                &g,
                &mut p,
                &RefineConfig {
                    seed,
                    ..Default::default()
                },
            );
            let cut_after = total_edge_cut(&g, &p);
            let imb_after = imbalances(&g, &p)[0];
            // Refinement may trade a little cut for balance on unbalanced
            // input, but must never worsen both.
            assert!(
                cut_after <= cut_before || imb_after < imb_before,
                "seed {seed}: cut {cut_before}→{cut_after}, imb {imb_before}→{imb_after}"
            );
            p.validate().unwrap();
        }
    }

    #[test]
    fn rebalancing_moves_fix_overload() {
        // All vertices initially in partition 0 of 2: refinement must move
        // roughly half across even though the cut temporarily dislikes it.
        let g = ring(32);
        let mut p = Partition {
            k: 2,
            assignment: vec![0; 32],
        };
        refine(&g, &mut p, &RefineConfig::default());
        let imb = imbalances(&g, &p);
        assert!(imb[0] < 1.6, "imbalance {} — rebalancing failed", imb[0]);
    }

    #[test]
    fn single_partition_noop() {
        let g = ring(8);
        let mut p = Partition {
            k: 1,
            assignment: vec![0; 8],
        };
        assert_eq!(refine(&g, &mut p, &RefineConfig::default()), 0);
    }

    #[test]
    fn multiconstraint_balance_respected() {
        // Two constraints where naive cut-chasing would pile constraint-1
        // weight into one partition.
        let mut b = GraphBuilder::new(32, 2);
        for v in 0..32u32 {
            b.set_vwgt(v, &[1, if v < 16 { 10 } else { 1 }]);
        }
        for v in 0..32 {
            b.add_edge(v, (v + 1) % 32, 1);
        }
        let g = b.build();
        let mut rng = CounterRng::from_key(&[3]);
        let mut p = Partition {
            k: 4,
            assignment: (0..32).map(|_| rng.uniform_u64(4) as u32).collect(),
        };
        refine(&g, &mut p, &RefineConfig::default());
        let imb = imbalances(&g, &p);
        // Constraint 1 is lumpy (half the vertices carry 10×); just require
        // that it did not collapse into a single partition.
        assert!(imb[1] < 2.5, "imbalances {imb:?}");
    }
}
