//! Golden epidemic hashes: the day path is pinned bit for bit.
//!
//! Each case runs a full epidemic and compares its `curve_hash` (every
//! daily count, including events, interactions, infects and the venue
//! split) with a constant. The constants were recorded before the location
//! phase moved onto static visit schedules, so any change to the person
//! phase, the visit records, the DES kernel or the apply phase that is not
//! exactly equivalent moves at least one of them. The per-location feature
//! totals the rebalancer reads are pinned too: their floating-point sums
//! depend on the order in which the kernel resolves susceptibles.

use episimdemics::chare_rt::{FaultPlan, RuntimeConfig};
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::ensemble::{run_sweep, CowWorld, EnsembleSpec};
use episimdemics::core::kernel::LocationDayFeatures;
use episimdemics::core::seq::run_sequential;
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::ptts::flu_model;
use episimdemics::ptts::intervention::{Action, Intervention, InterventionSet, Trigger};
use episimdemics::ptts::model::TreatmentId;
use episimdemics::synthpop::{LocationKind, Population, PopulationConfig};

/// The small intervention world: 1500 people, GP-splitLoc over 3
/// partitions.
fn small_pop() -> Population {
    Population::generate(&PopulationConfig::small("PIN", 1500, 7))
}

/// 40 days with a vaccination order on day 4, a school closure once
/// prevalence passes 1%, and social distancing (an `r_scale` below 1)
/// from day 12.
fn intervention_cfg() -> SimConfig {
    SimConfig {
        days: 40,
        r: 0.0015,
        seed: 77,
        initial_infections: 6,
        interventions: InterventionSet::new(vec![
            Intervention {
                trigger: Trigger::Day(4),
                action: Action::Vaccinate {
                    fraction: 0.3,
                    treatment: TreatmentId(1),
                    efficacy_factor: 0.4,
                },
            },
            Intervention {
                trigger: Trigger::PrevalenceAbove(0.01),
                action: Action::CloseKind {
                    kind: LocationKind::School as u8,
                    duration: 10,
                },
            },
            Intervention {
                trigger: Trigger::Day(12),
                action: Action::SocialDistance {
                    compliance: 0.6,
                    factor: 0.5,
                    duration: 14,
                },
            },
        ]),
        stop_when_extinct: false,
    }
}

const INTERVENTION_CURVE: u64 = 0xeace_2cc2_30ae_f1ce;
const INTERVENTION_FEATURES: u64 = 0xe0cb_5741_3fbf_b860;

fn features_hash(features: &[LocationDayFeatures]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in features {
        for x in [
            f.events,
            f.interactions,
            f.sum_reciprocal_interactions.to_bits(),
        ] {
            h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn oracle_with_interventions() {
    let curve = run_sequential(&small_pop(), &flu_model(), &intervention_cfg());
    assert!(curve.total_infections() > 50, "the epidemic must take off");
    assert_eq!(curve.hash(), INTERVENTION_CURVE);
}

#[test]
fn engines_with_interventions() {
    let pop = small_pop();
    let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 3, 7);
    for (name, rt) in [
        ("seq", RuntimeConfig::sequential(3)),
        ("threads", RuntimeConfig::threaded(3)),
        ("vt", RuntimeConfig::dst(3, FaultPlan::none(5))),
    ] {
        let sim = Simulator::new(&dist, flu_model(), intervention_cfg(), rt);
        let (run, _, features) = sim.run_collecting();
        assert_eq!(run.curve.hash(), INTERVENTION_CURVE, "{name} curve");
        assert_eq!(
            features_hash(&features),
            INTERVENTION_FEATURES,
            "{name} per-location feature totals"
        );
    }
}

/// The `sweep` benchmark world: 20k people, GP over 4 partitions.
fn sweep_world() -> (Population, CowWorld) {
    let pop = Population::generate(&PopulationConfig::small("SWEEP", 20_000, 0x5EE9));
    let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 0x5EE9);
    let world = CowWorld::build(&dist, flu_model());
    (pop, world)
}

fn sweep_cfg(r: f64) -> SimConfig {
    SimConfig {
        days: 60,
        r,
        seed: 3,
        initial_infections: 6,
        interventions: InterventionSet::none(),
        stop_when_extinct: false,
    }
}

#[test]
fn sweep_world_oracle() {
    let (pop, _) = sweep_world();
    let ptts = flu_model();
    for (r, want) in [(1e-4, 0xa17e_1ec4_1dcc_560c), (3e-4, 0x5ee1_e879_b8ac_acfc)] {
        let curve = run_sequential(&pop, &ptts, &sweep_cfg(r));
        assert_eq!(curve.hash(), want, "r = {r}");
    }
}

#[test]
fn sweep_result_store() {
    let (_, world) = sweep_world();
    let spec = EnsembleSpec::grid(&sweep_cfg(1e-4), &[1e-4, 2e-4, 3e-4], 2);
    let store = run_sweep(&world, &spec, 2);
    assert_eq!(store.hash(), 0xd294_2915_fc73_7a20);
}
