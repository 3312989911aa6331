//! A direct sequential EpiSimdemics implementation — the correctness oracle.
//!
//! Runs the same per-day algorithm with plain loops and no runtime. Because
//! every stochastic decision in the parallel simulator is keyed by
//! `(seed, entity, day, purpose)` rather than drawn from a shared stream,
//! this oracle must produce *bit-identical* epidemic curves; the
//! integration tests assert exactly that.

use crate::ensemble::MemberArena;
use crate::kernel::{InfectivityClasses, KernelParams};
use crate::messages::DayEffects;
use crate::output::{DayStats, EpiCurve};
use crate::person::{person_day, PersonSlot};
use crate::schedule::VisitSchedule;
use crate::simulator::SimConfig;
use ptts::crng::{CounterRng, Purpose};
use ptts::intervention::DayObservables;
use ptts::Ptts;
use synthpop::Population;

/// Run the sequential reference simulation.
pub fn run_sequential(pop: &Population, ptts: &Ptts, cfg: &SimConfig) -> EpiCurve {
    run_sequential_with_states(pop, ptts, cfg).0
}

/// Like [`run_sequential`] but also returning the final person states
/// (the transmission tree lives in their provenance fields).
pub fn run_sequential_with_states(
    pop: &Population,
    ptts: &Ptts,
    cfg: &SimConfig,
) -> (EpiCurve, Vec<PersonSlot>) {
    let mut arena = MemberArena::new();
    let schedule = VisitSchedule::unpartitioned(pop);
    let curve = run_sequential_into(pop, ptts, &schedule, cfg, &mut arena);
    (curve, arena.into_person_states())
}

/// Run the sequential simulation with all mutable per-run state drawn from
/// `arena`, over `schedule` (laid out over `pop`, with any partitioning:
/// the curve does not depend on it). Reusing one arena and one schedule
/// across many runs (the ensemble scheduler gives each worker its own
/// arena, and every member shares the world's schedule) amortises the
/// set-up; the epidemic itself is bit-identical to [`run_sequential`]
/// because the arena is reset to the same initial state every run.
pub fn run_sequential_into(
    pop: &Population,
    ptts: &Ptts,
    schedule: &VisitSchedule,
    cfg: &SimConfig,
    arena: &mut MemberArena,
) -> EpiCurve {
    let n_people = pop.n_people() as usize;
    assert_eq!(
        schedule.n_slots(),
        pop.visits.len(),
        "the schedule must be laid out over this population"
    );
    arena.reset(n_people, schedule, ptts);
    let MemberArena {
        slots,
        visits: day_visits,
        infects,
        scratch,
    } = arena;

    // Initial infections: identical draw to `Simulator::new`.
    let mut seeds = std::collections::BTreeSet::new();
    let mut rng = CounterRng::for_entity(cfg.seed, 0, 0, Purpose::Synthesis);
    let want = (cfg.initial_infections as usize).min(n_people);
    while seeds.len() < want {
        seeds.insert(rng.uniform_u64(n_people as u64) as u32);
    }
    for &pid in &seeds {
        slots[pid as usize].seed(ptts, cfg.seed);
    }

    let classes = InfectivityClasses::new(ptts);
    let symptomatic_state = ptts.state_by_name("symptomatic");
    let mut interventions = cfg.interventions.clone();
    let population = n_people as u64;
    let mut curve = EpiCurve {
        population,
        seeds: want as u64,
        days: Vec::new(),
    };
    let mut cumulative = want as u64;
    let mut yesterday_new = 0u64;
    let mut yesterday_infected = want as u64;

    for day in 0..cfg.days {
        let obs = DayObservables {
            day,
            infected_now: yesterday_infected,
            new_cases: yesterday_new,
            cumulative,
            population,
        };
        let fx = interventions.evaluate(&obs);
        let effects = DayEffects {
            closed_kinds: DayEffects::from_flags(&fx.closed_kinds),
            r_scale: fx.r_scale,
            vaccinations: fx.vaccinations,
        };
        let r_eff = cfg.r * effects.r_scale;

        // Phase 1: persons.
        let (mut symptomatic, mut infected_now, mut susceptible, mut visits) = (0u64, 0, 0, 0);
        for slot in slots.iter_mut() {
            let sym = person_day(
                slot,
                pop,
                schedule,
                ptts,
                &effects,
                symptomatic_state,
                None,
                cfg.seed,
                day,
                |_, msg| {
                    visits += 1;
                    day_visits.record(&classes, &msg);
                },
            );
            symptomatic += sym as u64;
            infected_now += slot.is_infected() as u64;
            susceptible += ptts.is_susceptible(slot.health.state) as u64;
        }

        // Phase 3: locations; infects are recorded as they are produced
        // (the dedup keeps the minimum, so order does not matter).
        let params = KernelParams {
            ptts,
            classes: &classes,
            r_eff,
            seed: cfg.seed,
            day,
        };
        let (mut events, mut interactions, mut infects_sent) = (0u64, 0u64, 0u64);
        let mut infections_by_kind = [0u64; 5];
        day_visits.compute(
            schedule,
            &params,
            scratch,
            infects,
            |_, location, f, day_infects| {
                events += f.events;
                interactions += f.interactions;
                infects_sent += day_infects.len() as u64;
                infections_by_kind[pop.locations[location as usize].kind as usize] +=
                    day_infects.len() as u64;
                for i in day_infects {
                    slots[i.person as usize].record_infection(i);
                }
            },
        );

        // Phase 5: apply (same dedup as PersonManager).
        let mut new_infections = 0u64;
        for slot in slots.iter_mut() {
            new_infections += slot.apply_pending(ptts, cfg.seed, day) as u64;
        }
        cumulative += new_infections;
        let stats = DayStats {
            day,
            new_infections,
            infected_now,
            susceptible,
            symptomatic,
            cumulative,
            visits,
            events,
            interactions,
            infects_sent,
            infections_by_kind,
        };
        yesterday_new = new_infections;
        yesterday_infected = infected_now;
        curve.days.push(stats);
        if cfg.stop_when_extinct && infected_now == 0 && new_infections == 0 && day > 0 {
            break;
        }
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{DataDistribution, Strategy};
    use crate::simulator::Simulator;
    use chare_rt::RuntimeConfig;
    use ptts::flu_model;
    use ptts::intervention::{Action, Intervention, InterventionSet, Trigger};
    use synthpop::PopulationConfig;

    fn small_pop() -> Population {
        Population::generate(&PopulationConfig::small("T", 1200, 23))
    }

    fn cfg(seed: u64) -> SimConfig {
        SimConfig {
            days: 35,
            r: 0.0012,
            seed,
            initial_infections: 6,
            ..Default::default()
        }
    }

    #[test]
    fn oracle_matches_parallel_simulator_exactly() {
        let pop = small_pop();
        let ptts = flu_model();
        let oracle = run_sequential(&pop, &ptts, &cfg(13));
        let dist = DataDistribution::build(&pop, Strategy::GraphPartition, 4, 13);
        let parallel = Simulator::new(&dist, ptts, cfg(13), RuntimeConfig::sequential(4)).run();
        assert_eq!(oracle, parallel.curve);
    }

    #[test]
    fn oracle_matches_threaded_simulator() {
        let pop = small_pop();
        let ptts = flu_model();
        let oracle = run_sequential(&pop, &ptts, &cfg(29));
        let dist = DataDistribution::build(&pop, Strategy::GraphPartitionSplit, 3, 29);
        let parallel = Simulator::new(&dist, ptts, cfg(29), RuntimeConfig::threaded(3)).run();
        assert_eq!(oracle, parallel.curve);
    }

    #[test]
    fn interventions_flow_through_identically() {
        let pop = small_pop();
        let ptts = flu_model();
        let interventions = InterventionSet::new(vec![
            Intervention {
                trigger: Trigger::Day(3),
                action: Action::Vaccinate {
                    fraction: 0.4,
                    treatment: ptts::model::TreatmentId(1),
                    efficacy_factor: 0.3,
                },
            },
            Intervention {
                trigger: Trigger::PrevalenceAbove(0.02),
                action: Action::CloseKind {
                    kind: synthpop::LocationKind::School as u8,
                    duration: 10,
                },
            },
        ]);
        let mut c = cfg(31);
        c.interventions = interventions;
        let oracle = run_sequential(&pop, &ptts, &c);
        let dist = DataDistribution::build(&pop, Strategy::RoundRobinSplit, 2, 31);
        let parallel = Simulator::new(&dist, ptts, c, RuntimeConfig::sequential(2)).run();
        assert_eq!(oracle, parallel.curve);
    }

    #[test]
    fn school_closure_reduces_attack_rate() {
        let pop = small_pop();
        let ptts = flu_model();
        let base = run_sequential(&pop, &ptts, &cfg(17));
        let mut with_closure = cfg(17);
        with_closure.interventions = InterventionSet::new(vec![Intervention {
            trigger: Trigger::Day(0),
            action: Action::CloseKind {
                kind: synthpop::LocationKind::School as u8,
                duration: 120,
            },
        }]);
        let closed = run_sequential(&pop, &ptts, &with_closure);
        assert!(
            closed.total_infections() <= base.total_infections(),
            "closure {} vs base {}",
            closed.total_infections(),
            base.total_infections()
        );
    }

    #[test]
    fn higher_r_more_infections() {
        let pop = small_pop();
        let ptts = flu_model();
        let lo = run_sequential(
            &pop,
            &ptts,
            &SimConfig {
                r: 0.0004,
                ..cfg(19)
            },
        );
        let hi = run_sequential(
            &pop,
            &ptts,
            &SimConfig {
                r: 0.003,
                ..cfg(19)
            },
        );
        assert!(hi.total_infections() > lo.total_infections());
    }

    #[test]
    fn susceptible_monotonically_decreases() {
        let pop = small_pop();
        let ptts = flu_model();
        let curve = run_sequential(&pop, &ptts, &cfg(37));
        for w in curve.days.windows(2) {
            assert!(w[1].susceptible <= w[0].susceptible);
            assert!(w[1].cumulative >= w[0].cumulative);
        }
    }

    #[test]
    fn venue_attribution_sums_to_infects() {
        let pop = small_pop();
        let ptts = flu_model();
        let curve = run_sequential(&pop, &ptts, &cfg(43));
        let mut any_kind = [false; 5];
        for d in &curve.days {
            assert_eq!(
                d.infections_by_kind.iter().sum::<u64>(),
                d.infects_sent,
                "day {}",
                d.day
            );
            for (k, &n) in d.infections_by_kind.iter().enumerate() {
                any_kind[k] |= n > 0;
            }
        }
        // Homes dominate transmission in this model; schools/workplaces
        // contribute too.
        assert!(any_kind[synthpop::LocationKind::Home as usize]);
        assert!(
            any_kind.iter().filter(|&&b| b).count() >= 2,
            "transmission should occur in multiple venue kinds"
        );
    }

    #[test]
    fn infects_never_exceed_interactions() {
        let pop = small_pop();
        let ptts = flu_model();
        let curve = run_sequential(&pop, &ptts, &cfg(41));
        for d in &curve.days {
            assert!(d.infects_sent <= d.interactions.max(1));
        }
    }
}
