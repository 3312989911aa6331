//! CSR graphs with multi-constraint vertex weights.
//!
//! The layout mirrors METIS: `xadj`/`adjncy`/`adjwgt` for the structure and
//! a flat `vwgt` array of `ncon` weights per vertex, where each constraint
//! corresponds to one phase of the application's computation (persons /
//! locations in EpiSimdemics).

/// An undirected graph in CSR form with weighted edges and `ncon`
/// weights per vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    ncon: usize,
    /// Offsets: neighbors of `v` are `adjncy[xadj[v]..xadj[v+1]]`.
    xadj: Vec<u32>,
    /// Neighbor vertex ids (each undirected edge appears twice).
    adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    adjwgt: Vec<u32>,
    /// Vertex weights, `vwgt[v*ncon + c]`.
    vwgt: Vec<u64>,
}

impl CsrGraph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        (self.xadj.len() - 1) as u32
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> u64 {
        (self.adjncy.len() / 2) as u64
    }

    /// Number of balance constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Neighbors of `v` with edge weights.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.xadj[v as usize] as usize;
        let hi = self.xadj[v as usize + 1] as usize;
        self.adjncy[lo..hi]
            .iter()
            .copied()
            .zip(self.adjwgt[lo..hi].iter().copied())
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Weight of `v` under constraint `c`.
    #[inline]
    pub fn vwgt(&self, v: u32, c: usize) -> u64 {
        self.vwgt[v as usize * self.ncon + c]
    }

    /// All weights of `v`.
    #[inline]
    pub fn vwgts(&self, v: u32) -> &[u64] {
        let base = v as usize * self.ncon;
        &self.vwgt[base..base + self.ncon]
    }

    /// Total weight per constraint.
    pub fn total_weights(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.ncon];
        for v in 0..self.n() {
            for (c, t) in totals.iter_mut().enumerate() {
                *t += self.vwgt(v, c);
            }
        }
        totals
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        self.adjwgt.iter().map(|&w| w as u64).sum::<u64>() / 2
    }

    /// Structural validation: offsets in range, every row strictly
    /// ascending (partitioner tie-breaks depend on that order), no
    /// self-loops, symmetric adjacency with equal weights. Runs in
    /// O(m log Δ) (symmetry by binary search in the sorted row), so it is
    /// cheap enough for benchmark-size graphs.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if self.adjncy.len() != self.adjwgt.len() {
            return Err("adjncy/adjwgt length mismatch".into());
        }
        if self.vwgt.len() != n as usize * self.ncon {
            return Err("vwgt length mismatch".into());
        }
        if self.xadj[0] != 0 || self.xadj[n as usize] as usize != self.adjncy.len() {
            return Err("xadj does not span adjncy".into());
        }
        if self.xadj.windows(2).any(|w| w[0] > w[1]) {
            return Err("xadj not monotone".into());
        }
        for v in 0..n {
            let row = self.row(v);
            if let Some(i) = row.windows(2).position(|p| p[0] >= p[1]) {
                return Err(format!("row {v} not strictly ascending at {i}"));
            }
            for (u, w) in self.neighbors(v) {
                if u >= n {
                    return Err(format!("edge ({v},{u}) out of range"));
                }
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                let back = self.row(u).binary_search(&v).ok();
                if back.map(|i| self.adjwgt[self.xadj[u as usize] as usize + i]) != Some(w) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }

    /// Neighbor ids of `v` (ascending).
    #[inline]
    fn row(&self, v: u32) -> &[u32] {
        &self.adjncy[self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize]
    }

    /// Assemble a graph from symmetric rows given in any order within
    /// each row (`rows[xadj[v]..xadj[v + 1]]` holds `(neighbour, weight)`;
    /// no duplicates, no self-loops). One counting-sort transpose puts
    /// every row in ascending order: sources are scanned in ascending id,
    /// so row `u` of the transpose receives its entries ascending, and by
    /// symmetry it holds exactly row `u`'s entries. The transpose's row
    /// lengths equal the input's, so `xadj` carries over. Every CSR graph
    /// in this crate is assembled here.
    pub(crate) fn from_symmetric_rows(
        ncon: usize,
        xadj: Vec<u32>,
        rows: Vec<(u32, u32)>,
        vwgt: Vec<u64>,
    ) -> CsrGraph {
        let n = xadj.len() - 1;
        let mut cursor = xadj[..n].to_vec();
        let mut sorted = vec![(0u32, 0u32); rows.len()];
        for v in 0..n {
            for &(u, w) in &rows[xadj[v] as usize..xadj[v + 1] as usize] {
                let slot = &mut cursor[u as usize];
                sorted[*slot as usize] = (v as u32, w);
                *slot += 1;
            }
        }
        debug_assert!(cursor.iter().zip(&xadj[1..]).all(|(c, end)| c == end));
        drop(rows);
        let (adjncy, adjwgt) = sorted.into_iter().unzip();
        CsrGraph {
            ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }
}

/// Incremental builder: add undirected edges (duplicates accumulate their
/// weights), then `build()`.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: u32,
    ncon: usize,
    vwgt: Vec<u64>,
    /// (u, v, w) with u < v.
    edges: Vec<(u32, u32, u32)>,
}

impl GraphBuilder {
    /// A builder for `n` vertices with `ncon` constraints; vertex weights
    /// start at zero.
    pub fn new(n: u32, ncon: usize) -> Self {
        assert!(ncon >= 1, "need at least one constraint");
        GraphBuilder {
            n,
            ncon,
            vwgt: vec![0; n as usize * ncon],
            edges: Vec::new(),
        }
    }

    /// Set all weights of vertex `v`.
    pub fn set_vwgt(&mut self, v: u32, weights: &[u64]) {
        assert_eq!(weights.len(), self.ncon);
        let base = v as usize * self.ncon;
        self.vwgt[base..base + self.ncon].copy_from_slice(weights);
    }

    /// Add weight to one constraint of vertex `v`.
    pub fn add_vwgt(&mut self, v: u32, c: usize, w: u64) {
        self.vwgt[v as usize * self.ncon + c] += w;
    }

    /// Add an undirected edge. Parallel edges merge by weight addition;
    /// self-loops are ignored.
    pub fn add_edge(&mut self, u: u32, v: u32, w: u32) {
        if u == v {
            return;
        }
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Build the CSR graph: parallel edges merge (saturating, to keep u32
    /// weights safe) and every row is ascending. Linear in edges: bucket
    /// both directions of every edge by source, merge each row's
    /// duplicates through a mark array, then sort rows by transpose.
    pub fn build(self) -> CsrGraph {
        const NONE: u32 = u32::MAX;
        let n = self.n as usize;
        let mut xadj = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for i in 1..=n {
            xadj[i] += xadj[i - 1];
        }
        let mut cursor = xadj[..n].to_vec();
        let mut rows = vec![(0u32, 0u32); self.edges.len() * 2];
        for &(u, v, w) in &self.edges {
            for (a, b) in [(u, v), (v, u)] {
                let c = &mut cursor[a as usize];
                rows[*c as usize] = (b, w);
                *c += 1;
            }
        }
        drop(self.edges);

        // Merge each row's parallel edges in place: `slot[u]` is u's entry
        // in the row being compacted.
        let mut slot = vec![NONE; n];
        let mut len = 0usize;
        for v in 0..n {
            let (lo, hi) = (xadj[v] as usize, xadj[v + 1] as usize);
            xadj[v] = len as u32;
            for i in lo..hi {
                let (u, w) = rows[i];
                match slot[u as usize] {
                    NONE => {
                        slot[u as usize] = len as u32;
                        rows[len] = (u, w);
                        len += 1;
                    }
                    s => rows[s as usize].1 = rows[s as usize].1.saturating_add(w),
                }
            }
            for &(u, _) in &rows[xadj[v] as usize..len] {
                slot[u as usize] = NONE;
            }
        }
        xadj[n] = len as u32;
        rows.truncate(len);
        CsrGraph::from_symmetric_rows(self.ncon, xadj, rows, self.vwgt)
    }
}

/// The 13-vertex example of the paper's Figure 2 (vertex 1 has weight 8 and
/// the most edges; vertices 7 and 9 have weight 1; the rest weight 2), used
/// in tests and the partition-study example. Vertex ids are zero-based
/// (paper's node 1 → vertex 0).
pub fn figure2_example() -> CsrGraph {
    // Node weights from the caption: node 1 → 8, nodes 7 and 9 → 1. The
    // remaining weights and the topology (a star of 8 around node 1 plus two
    // short chains) are chosen to reproduce the caption's arithmetic
    // exactly: total weight 24 (avg 4.8 over 5 partitions), a load-optimal
    // partitioning with 8 cuts and max load 8 (ratio 8/4.8 ≈ 1.67), and a
    // cut-optimal partitioning with 6 cuts and max load 10 (10/4.8 ≈ 2.08).
    let weights: [u64; 13] = [8, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1];
    let mut b = GraphBuilder::new(13, 1);
    for (v, &w) in weights.iter().enumerate() {
        b.set_vwgt(v as u32, &[w]);
    }
    // Star: node 1 (id 0) connects to ids 1..=8.
    for v in 1..=8u32 {
        b.add_edge(0, v, 1);
    }
    // Periphery pairs among the remaining vertices.
    b.add_edge(9, 10, 1);
    b.add_edge(11, 12, 1);
    b.add_edge(1, 9, 1);
    b.add_edge(2, 11, 1);
    b.build()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Small weights (zero included) and weights near `u32::MAX`, so that
    /// parallel edges take the saturating merge.
    pub(crate) fn edge_weight() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..4, u32::MAX - 4..u32::MAX]
    }

    proptest! {
        #[test]
        fn builder_matches_sorted_reference(
            n in 1u32..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, edge_weight()), 0..200),
        ) {
            let mut b = GraphBuilder::new(n, 1);
            // Both directions of every edge, ordered by (row, neighbour).
            let mut rows: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for &(u, v, w) in &edges {
                let (u, v) = (u % n, v % n);
                b.add_edge(u, v, w);
                if u != v {
                    for key in [(u, v), (v, u)] {
                        let e = rows.entry(key).or_insert(0);
                        *e = e.saturating_add(w);
                    }
                }
            }
            let mut xadj = vec![0u32; n as usize + 1];
            for &(u, _) in rows.keys() {
                xadj[u as usize + 1] += 1;
            }
            for i in 1..xadj.len() {
                xadj[i] += xadj[i - 1];
            }
            let reference = CsrGraph {
                ncon: 1,
                xadj,
                adjncy: rows.keys().map(|&(_, v)| v).collect(),
                adjwgt: rows.values().copied().collect(),
                vwgt: vec![0; n as usize],
            };
            let g = b.build();
            g.validate().unwrap();
            prop_assert_eq!(g, reference);
        }
    }

    #[test]
    fn validate_rejects_unsorted_and_asymmetric_rows() {
        let good = CsrGraph {
            ncon: 1,
            xadj: vec![0, 2, 3, 4],
            adjncy: vec![1, 2, 0, 0],
            adjwgt: vec![1, 1, 1, 1],
            vwgt: vec![1; 3],
        };
        good.validate().unwrap();
        let unsorted = CsrGraph {
            adjncy: vec![2, 1, 0, 0],
            ..good.clone()
        };
        assert!(unsorted.validate().unwrap_err().contains("ascending"));
        let asymmetric = CsrGraph {
            adjwgt: vec![1, 2, 1, 1],
            ..good.clone()
        };
        assert!(asymmetric.validate().unwrap_err().contains("asymmetric"));
        let duplicate = CsrGraph {
            adjncy: vec![1, 1, 0, 0],
            ..good
        };
        assert!(duplicate.validate().is_err());
    }

    #[test]
    fn builder_produces_symmetric_csr() {
        let mut b = GraphBuilder::new(4, 2);
        b.set_vwgt(0, &[1, 10]);
        b.set_vwgt(1, &[2, 20]);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 5);
        let g = b.build();
        g.validate().unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.vwgt(0, 1), 10);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_edge_weight(), 9);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 0, 3);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 5)));
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2, 1);
        b.add_edge(0, 0, 9);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.m(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn totals() {
        let mut b = GraphBuilder::new(3, 2);
        b.set_vwgt(0, &[1, 4]);
        b.set_vwgt(1, &[2, 5]);
        b.set_vwgt(2, &[3, 6]);
        let g = b.build();
        assert_eq!(g.total_weights(), vec![6, 15]);
    }

    #[test]
    fn isolated_vertices_ok() {
        let b = GraphBuilder::new(5, 1);
        let g = b.build();
        g.validate().unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn figure2_matches_caption_arithmetic() {
        let g = figure2_example();
        g.validate().unwrap();
        assert_eq!(g.n(), 13);
        // Total weight 24 ⇒ 5-way average load is 4.8, so the caption's
        // max/avg ratios are 8/4.8 ≈ 1.67 and 10/4.8 ≈ 2.08.
        let total: u64 = g.total_weights()[0];
        assert_eq!(total, 24);
        assert!((8.0 / (total as f64 / 5.0) - 1.67).abs() < 0.01);
        assert!((10.0 / (total as f64 / 5.0) - 2.08).abs() < 0.01);
        // Heaviest vertex has the most edges.
        let dmax_v = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
        assert_eq!(dmax_v, 0);
        assert_eq!(g.degree(0), 8);
        assert_eq!(g.vwgt(0, 0), 8);
    }
}
