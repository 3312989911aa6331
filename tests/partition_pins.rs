//! Golden partition hashes: the partitioner's output is pinned bit for bit.
//!
//! Every case below hashes a full assignment with FNV-1a over the
//! partition ids. Coarsening ties (heavy-edge matching takes the first
//! heaviest neighbour) and refinement ties (the first partition to appear
//! in a row wins) depend on the adjacency order of every level, so any
//! change to contraction, CSR assembly or refinement bookkeeping that is
//! not exactly equivalent moves at least one of these hashes. A change
//! that is meant to alter partitions must re-record them and say why.

use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::{build_workload_graph, split_heavy_locations, SplitConfig};
use episimdemics::graph_part::coarsen::coarsen_to;
use episimdemics::graph_part::{
    kway_partition, recursive_bisection, CsrGraph, GraphBuilder, PartitionConfig,
};
use episimdemics::load_model::{LoadUnits, PiecewiseModel};
use episimdemics::synthpop::state::by_code;
use episimdemics::synthpop::{Population, PopulationConfig};

fn fnv(parts: &[&[u32]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &x in *part {
            h = (h ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dist_hash(pop: &Population, strategy: Strategy, k: u32) -> u64 {
    let d = DataDistribution::build(pop, strategy, k, 0xCA);
    fnv(&[&d.person_part, &d.location_part])
}

fn ca() -> Population {
    let counts = by_code("CA").expect("CA is a known state").scaled(1e-3);
    Population::generate(&PopulationConfig::from_counts(counts, 0xCA))
}

fn workload(pop: &Population) -> CsrGraph {
    build_workload_graph(
        pop,
        &PiecewiseModel::paper_constants(),
        LoadUnits::default(),
    )
    .0
}

/// A `side × side` grid with unit vertex and edge weights: every vertex
/// sees tied candidates in refinement.
fn grid(side: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(side * side, 1);
    for v in 0..side * side {
        b.set_vwgt(v, &[1]);
    }
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            if c + 1 < side {
                b.add_edge(v, v + 1, 1);
            }
            if r + 1 < side {
                b.add_edge(v, v + side, 1);
            }
        }
    }
    b.build()
}

#[test]
fn ca_splitloc_k2() {
    assert_eq!(
        dist_hash(&ca(), Strategy::GraphPartitionSplit, 2),
        0xef9d_1263_c9e3_80b1
    );
}

#[test]
fn ca_splitloc_k16() {
    assert_eq!(
        dist_hash(&ca(), Strategy::GraphPartitionSplit, 16),
        0xf75d_b4d1_5c84_03fe
    );
}

#[test]
fn ca_graph_and_every_coarsening_level_validate() {
    // The GP-splitLoc k = 2 input and the levels its partition is built
    // on: sorted, symmetric rows on every level.
    let cfg = SplitConfig {
        max_partitions: 256,
        threshold_override: None,
    };
    let g = workload(&split_heavy_locations(&ca(), &cfg).pop);
    g.validate().unwrap();
    let levels = coarsen_to(&g, 256, 0xCA);
    assert!(levels.len() > 10, "only {} levels", levels.len());
    for (i, level) in levels.iter().enumerate() {
        level
            .graph
            .validate()
            .unwrap_or_else(|e| panic!("level {i}: {e}"));
    }
}

#[test]
fn sweep_world_k4() {
    let pop = Population::generate(&PopulationConfig::small("SWEEP", 20_000, 0x5EE9));
    assert_eq!(
        dist_hash(&pop, Strategy::GraphPartition, 4),
        0x1628_191f_2eae_4ade
    );
}

#[test]
fn service_world_k4() {
    let pop = Population::generate(&PopulationConfig::small("svc", 1000, 7));
    assert_eq!(
        dist_hash(&pop, Strategy::GraphPartition, 4),
        0x92c7_a8f3_e32b_b816
    );
}

#[test]
fn recursive_bisection_small_world() {
    let g = workload(&Population::generate(&PopulationConfig::small(
        "RB", 3000, 11,
    )));
    let hashes: Vec<u64> = [3u32, 8]
        .iter()
        .map(|&k| {
            let cfg = PartitionConfig::new(k).with_seed(0xCA).with_ubfactor(1.10);
            fnv(&[&recursive_bisection(&g, &cfg).assignment])
        })
        .collect();
    assert_eq!(hashes, [0xe0ee_7e5d_ef97_40a1, 0xaf60_3e36_ee88_16a5]);
}

#[test]
fn uniform_grids_with_tied_candidates() {
    let hashes: Vec<u64> = [(24u32, 4u32), (24, 8), (33, 8)]
        .iter()
        .map(|&(side, k)| {
            let cfg = PartitionConfig::new(k).with_seed(5);
            fnv(&[&kway_partition(&grid(side), &cfg).assignment])
        })
        .collect();
    assert_eq!(
        hashes,
        [
            0xf96f_d3ce_3606_9dc9,
            0x696d_652a_c975_10b9,
            0x3363_bc3f_7537_ec3d
        ]
    );
}

#[test]
fn exact_balance_runs_the_overload_path() {
    // ubfactor 1.0: nearly every level starts with a partition above its
    // limit, so cut-worsening drains and the `lightest` escape hatch run.
    let g = workload(&Population::generate(&PopulationConfig::small(
        "UB", 2000, 3,
    )));
    let hashes: Vec<u64> = [2u32, 5]
        .iter()
        .map(|&k| {
            let cfg = PartitionConfig::new(k).with_seed(0xCA).with_ubfactor(1.0);
            fnv(&[&kway_partition(&g, &cfg).assignment])
        })
        .collect();
    let grid_hash = fnv(&[&kway_partition(
        &grid(20),
        &PartitionConfig::new(4).with_seed(2).with_ubfactor(1.0),
    )
    .assignment]);
    assert_eq!(
        (hashes, grid_hash),
        (
            vec![0x6762_6f1e_520a_e99a, 0x80c7_b777_ff23_8d81],
            0xb3d8_b169_73b5_9d5f
        )
    );
}
