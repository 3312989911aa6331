//! Property-based tests over the core invariants, with `proptest` driving
//! population shapes, seeds, partition counts and strategies.

use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy as DistStrategy};
use episimdemics::core::kernel::{simulate_location_day, InfectivityClasses, KernelScratch};
use episimdemics::core::messages::{InfectMsg, VisitMsg};
use episimdemics::core::seq::run_sequential;
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::core::splitloc::{split_heavy_locations, SplitConfig};
use episimdemics::graph_part::{kway_partition, PartitionConfig, PartitionQuality};
use episimdemics::load_model::fit::{fit_linear, fit_piecewise};
use episimdemics::ptts::crng::{CounterRng, Purpose};
use episimdemics::ptts::flu_model;
use episimdemics::ptts::model::{HealthTracker, StateId};
use episimdemics::ptts::transmission::select_infector;
use episimdemics::ptts::Ptts;
use episimdemics::synthpop::{Population, PopulationConfig};
use proptest::prelude::*;

fn arb_pop() -> impl Strategy<Value = Population> {
    (300u32..1200, 0u64..1000)
        .prop_map(|(n, seed)| Population::generate(&PopulationConfig::small("P", n, seed)))
}

/// Arbitrary one-location visit buffers: mixed states, sublocations, time
/// windows (including zero-duration stays) and susceptibility scales. The
/// canonical kernel order is `(sublocation, start, person)`, so those keys
/// are kept unique — duplicates would make the unstable sorts ambiguous.
fn arb_visits() -> impl Strategy<Value = Vec<VisitMsg>> {
    collection::vec(
        (0u32..12, 0u16..5, 0u16..1200, 0u16..240, 0u32..1000),
        1..40,
    )
    .prop_map(|raw| {
        let n_states = flu_model().n_states() as u32;
        let mut seen = std::collections::HashSet::new();
        let mut visits = Vec::new();
        for (person, sublocation, start_min, dur, mix) in raw {
            if !seen.insert((sublocation, start_min, person)) {
                continue;
            }
            visits.push(VisitMsg {
                person,
                location: 0,
                sublocation,
                start_min,
                end_min: start_min + dur,
                state: StateId((mix % n_states) as u16),
                sus_scale: match (mix / n_states) % 3 {
                    0 => 0.0,
                    1 => 0.5,
                    _ => 1.0,
                },
            });
        }
        visits
    })
}

/// Deterministic Fisher–Yates driven by a splitmix-style stream (the
/// proptest shim has no `prop_shuffle`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for i in (1..items.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (s >> 33) as usize % (i + 1));
    }
}

/// A deliberately naive O(n²) reference for the location DES: per-class
/// exposure integrals computed as pairwise interval overlaps, fresh
/// allocations everywhere, plain comparison sorts. Emits the same
/// `InfectMsg` stream the scratch kernel must produce (the CRNG keys every
/// draw by `(seed, person, day, start_min)`, so only the resolution order —
/// sublocation ascending, then departure time, then canonical index —
/// matters for the stream).
fn naive_location_day(
    visits: &[VisitMsg],
    ptts: &Ptts,
    r_eff: f64,
    seed: u64,
    day: u32,
) -> (Vec<InfectMsg>, u64, f64) {
    // Rebuild the dense infectivity classes from the public PTTS API.
    let mut class_of_state = vec![usize::MAX; ptts.n_states()];
    let mut iota: Vec<f64> = Vec::new();
    for (s, slot) in class_of_state.iter_mut().enumerate() {
        let inf = ptts.infectivity(StateId(s as u16));
        if inf > 0.0 {
            *slot = iota
                .iter()
                .position(|&x| (x - inf).abs() < 1e-12)
                .unwrap_or_else(|| {
                    iota.push(inf);
                    iota.len() - 1
                });
        }
    }
    let class = |st: StateId| {
        let c = class_of_state[st.0 as usize];
        (c != usize::MAX).then_some(c)
    };

    let mut sorted = visits.to_vec();
    sorted.sort_by_key(|v| {
        ((v.sublocation as u64) << 48) | ((v.start_min as u64) << 32) | v.person as u64
    });
    let mut out = Vec::new();
    let mut interactions = 0u64;
    let mut sum_recip = 0.0f64;
    let mut lo = 0usize;
    while lo < sorted.len() {
        let mut hi = lo + 1;
        while hi < sorted.len() && sorted[hi].sublocation == sorted[lo].sublocation {
            hi += 1;
        }
        let group = &sorted[lo..hi];
        // Susceptibles resolve at their departure events.
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by_key(|&i| ((group[i].end_min as u64) << 32) | i as u64);
        for &i in &order {
            let v = &group[i];
            if v.end_min <= v.start_min || !ptts.is_susceptible(v.state) || v.sus_scale <= 0.0 {
                continue;
            }
            let s_i = ptts.susceptibility(v.state) * v.sus_scale as f64;
            let mut tau = vec![0.0f64; iota.len()];
            let mut encounters = 0u64;
            for (j, w) in group.iter().enumerate() {
                if j == i || w.end_min <= w.start_min {
                    continue;
                }
                let Some(c) = class(w.state) else { continue };
                let ov =
                    (v.end_min.min(w.end_min) as i32 - v.start_min.max(w.start_min) as i32).max(0);
                if ov > 0 {
                    tau[c] += ov as f64;
                    encounters += 1;
                }
            }
            interactions += encounters;
            if encounters > 0 {
                sum_recip += 1.0 / encounters as f64;
            }
            let mut log_escape = 0.0f64;
            for (c, &t) in tau.iter().enumerate() {
                if t <= 0.0 {
                    continue;
                }
                let q = (r_eff * s_i * iota[c]).clamp(0.0, 1.0 - 1e-12);
                if q > 0.0 {
                    log_escape += t * (-q).ln_1p();
                }
            }
            let p = 1.0 - log_escape.exp();
            if p <= 0.0 {
                continue;
            }
            let mut rng = CounterRng::from_key(&[
                seed,
                v.person as u64,
                day as u64,
                Purpose::Infection as u64,
                v.start_min as u64,
            ]);
            if !rng.bernoulli(p) {
                continue;
            }
            let mut cands: Vec<(u32, f64)> = Vec::new();
            for w in group.iter() {
                if w.person == v.person && w.start_min == v.start_min {
                    continue;
                }
                let Some(c) = class(w.state) else { continue };
                let ov = (v.end_min.min(w.end_min) as i32 - v.start_min.max(w.start_min) as i32)
                    .max(0) as f64;
                if ov > 0.0 {
                    let q = (r_eff * s_i * iota[c]).clamp(0.0, 1.0 - 1e-12);
                    cands.push((w.person, 1.0 - (ov * (-q).ln_1p()).exp()));
                }
            }
            let infector = if cands.is_empty() {
                u32::MAX
            } else {
                let probs: Vec<f64> = cands.iter().map(|&(_, p)| p).collect();
                match select_infector(&probs, rng.uniform_f64()) {
                    Some(k) => cands[k].0,
                    None => u32::MAX,
                }
            };
            out.push(InfectMsg {
                person: v.person,
                time_min: v.start_min,
                infector,
            });
        }
        lo = hi;
    }
    (out, interactions, sum_recip)
}

fn arb_strategy() -> impl Strategy<Value = DistStrategy> {
    prop_oneof![
        Just(DistStrategy::RoundRobin),
        Just(DistStrategy::GraphPartition),
        Just(DistStrategy::RoundRobinSplit),
        Just(DistStrategy::GraphPartitionSplit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flagship property: the parallel simulator equals the sequential
    /// oracle for any population, seed, distribution strategy and PE count.
    #[test]
    fn parallel_equals_oracle(
        pop in arb_pop(),
        strategy in arb_strategy(),
        k in 1u32..6,
        pes in 1u32..4,
        sim_seed in 0u64..500,
    ) {
        let cfg = SimConfig {
            days: 12,
            r: 0.0015,
            seed: sim_seed,
            initial_infections: 4,
            ..Default::default()
        };
        let oracle = run_sequential(&pop, &flu_model(), &cfg);
        let dist = DataDistribution::build(&pop, strategy, k, sim_seed);
        let run = Simulator::new(&dist, flu_model(), cfg, RuntimeConfig::sequential(pes)).run();
        prop_assert_eq!(run.curve, oracle);
    }

    /// splitLoc conserves visits, people and interaction cohorts for any
    /// threshold.
    #[test]
    fn splitloc_conserves(pop in arb_pop(), threshold in 10u32..200) {
        let res = split_heavy_locations(&pop, &SplitConfig {
            max_partitions: 64,
            threshold_override: Some(threshold),
        });
        prop_assert_eq!(res.pop.visits.len(), pop.visits.len());
        prop_assert_eq!(res.pop.people.len(), pop.people.len());
        // Degrees after split never exceed the original maximum.
        let deg = |p: &Population| {
            let mut d = vec![0u32; p.locations.len()];
            for v in &p.visits { d[v.location.0 as usize] += 1; }
            d
        };
        let dmax_before = deg(&pop).into_iter().max().unwrap_or(0);
        let dmax_after = deg(&res.pop).into_iter().max().unwrap_or(0);
        prop_assert!(dmax_after <= dmax_before);
        // Every visit's sublocation stays within its location's rooms.
        for v in &res.pop.visits {
            prop_assert!(
                v.sublocation.0 < res.pop.locations[v.location.0 as usize].n_sublocations
            );
        }
    }

    /// The partitioner always returns a valid assignment whose max load is
    /// at least the heaviest vertex (a sanity floor) and whose speedup
    /// bound never exceeds the Ltot/lmax ceiling.
    #[test]
    fn partitioner_bounds(pop in arb_pop(), k in 2u32..32) {
        let (g, _) = episimdemics::core::build_workload_graph(
            &pop,
            &episimdemics::load_model::PiecewiseModel::paper_constants(),
            episimdemics::load_model::LoadUnits::default(),
        );
        let part = kway_partition(&g, &PartitionConfig::new(k));
        prop_assert!(part.validate().is_ok());
        let q = PartitionQuality::compute(&g, &part);
        for c in 0..2 {
            let lmax_vertex = (0..g.n()).map(|v| g.vwgt(v, c)).max().unwrap_or(0);
            prop_assert!(q.max_load(c) >= lmax_vertex);
            let sub = q.speedup_upper_bound(c);
            let ceiling = q.total_load(c) as f64 / lmax_vertex.max(1) as f64;
            prop_assert!(sub <= ceiling + 1e-9);
        }
    }

    /// Health trajectories terminate and are reproducible for any entity.
    #[test]
    fn ptts_trajectories_terminate(seed in 0u64..10_000, entity in 0u64..10_000) {
        let m = flu_model();
        let mut h = HealthTracker::new(&m);
        h.infect(&m, seed, entity, 0);
        let mut day = 1u64;
        while h.days_remaining != u32::MAX {
            h.advance(&m, seed, entity, day);
            day += 1;
            prop_assert!(day < 200, "flu course must terminate");
        }
        prop_assert_eq!(m.state(h.state).name.as_str(), "recovered");
    }

    /// Piecewise fitting never panics and reproduces a clean linear signal
    /// on arbitrary grids.
    #[test]
    fn piecewise_fit_on_linear_data(
        a in -100.0f64..100.0,
        b in 0.1f64..10.0,
        n in 6usize..100,
    ) {
        let pts: Vec<(f64, f64)> = (0..n).map(|i| {
            let x = i as f64;
            (x, a + b * x)
        }).collect();
        let m = fit_piecewise(&pts, 1.0).unwrap();
        let lin = fit_linear(&pts).unwrap();
        prop_assert!((lin.b - b).abs() < 1e-6);
        // The piecewise model on a linear signal predicts within noise.
        for &(x, y) in &pts {
            prop_assert!((m.eval(x).max(0.0) - y.max(0.0)).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    /// The location DES is invariant under any permutation of the visit
    /// buffer: message arrival order must never leak into results.
    #[test]
    fn kernel_invariant_under_visit_permutation(
        visits in arb_visits(),
        shuffle_seed in 0u64..10_000,
        r_scale in 1u32..80,
    ) {
        let r_eff = r_scale as f64 * 1e-4;
        let ptts = flu_model();
        let classes = InfectivityClasses::new(&ptts);
        let mut scratch = KernelScratch::new();

        let mut base = visits.clone();
        let mut out_a = Vec::new();
        let fa = simulate_location_day(
            &mut base, &ptts, &classes, r_eff, 7, 2, &mut scratch, &mut out_a,
        );
        let mut shuffled = visits;
        shuffle(&mut shuffled, shuffle_seed);
        let mut out_b = Vec::new();
        let fb = simulate_location_day(
            &mut shuffled, &ptts, &classes, r_eff, 7, 2, &mut scratch, &mut out_b,
        );
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(fa, fb);
    }

    /// The scratch-buffer sweep kernel produces the exact `InfectMsg`
    /// stream of a naive O(n²) pairwise reference — the determinism
    /// contract the zero-allocation refactor must uphold.
    #[test]
    fn scratch_kernel_matches_naive_reference(
        visits in arb_visits(),
        kernel_seed in 0u64..100,
        r_scale in 1u32..80,
    ) {
        let r_eff = r_scale as f64 * 1e-4;
        let ptts = flu_model();
        let classes = InfectivityClasses::new(&ptts);
        let mut scratch = KernelScratch::new();

        let mut buf = visits.clone();
        let mut out = Vec::new();
        let f = simulate_location_day(
            &mut buf, &ptts, &classes, r_eff, kernel_seed, 3, &mut scratch, &mut out,
        );
        let (naive_out, naive_inter, naive_recip) =
            naive_location_day(&visits, &ptts, r_eff, kernel_seed, 3);
        prop_assert_eq!(out, naive_out);
        prop_assert_eq!(f.interactions, naive_inter);
        prop_assert_eq!(f.events, 2 * visits.len() as u64);
        prop_assert!(f.sum_reciprocal_interactions.to_bits() == naive_recip.to_bits());
    }

    /// Ensemble determinism: for a random (seed grid, r grid), the sweep's
    /// result store is bit-identical to running each member standalone via
    /// `Simulator::run_curve`, regardless of worker count — scheduling
    /// interleaving must be unobservable in the output.
    #[test]
    fn ensemble_equals_standalone_members(
        pop in arb_pop(),
        strategy in arb_strategy(),
        base_seed in 0u64..500,
        r_lo in 4u32..12,
        workers in 1u32..6,
        n_seeds in 1u32..4,
    ) {
        use episimdemics::core::ensemble::{run_sweep, CowWorld, EnsembleSpec};

        let base = SimConfig {
            days: 10,
            r: 0.0,
            seed: base_seed,
            initial_infections: 4,
            ..Default::default()
        };
        let rs = [r_lo as f64 * 1e-4, (r_lo + 8) as f64 * 1e-4];
        let dist = DataDistribution::build(&pop, strategy, 3, base_seed);
        let world = CowWorld::build(&dist, flu_model());
        let spec = EnsembleSpec::grid(&base, &rs, n_seeds);
        let store = run_sweep(&world, &spec, workers);
        for pi in 0..spec.points.len() {
            for si in 0..spec.seeds.len() {
                let member = spec.points[pi].config(&base, spec.seeds[si]);
                let standalone = Simulator::run_curve(
                    &dist,
                    flu_model(),
                    member,
                    RuntimeConfig::sequential(2),
                );
                prop_assert_eq!(store.curve(pi, si), &standalone);
            }
        }
    }

    /// Generated populations always satisfy their structural contract.
    #[test]
    fn population_contract(pop in arb_pop()) {
        prop_assert_eq!(pop.person_offsets.len(), pop.people.len() + 1);
        for (pid, vs) in pop.iter_people() {
            prop_assert!(!vs.is_empty());
            let mut cursor = 0u16;
            for v in vs {
                prop_assert_eq!(v.person, pid);
                prop_assert_eq!(v.start_min, cursor);
                cursor = v.end_min();
            }
            prop_assert_eq!(cursor, synthpop::MINUTES_PER_DAY);
        }
    }
}
