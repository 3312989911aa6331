//! Dropping a threaded simulator stops its PE threads.
//!
//! This binary holds a single test on purpose: it counts the process's
//! threads through procfs, which other tests running in parallel would
//! disturb.

use chare_rt::RuntimeConfig;
use episim_core::distribution::{DataDistribution, Strategy};
use episim_core::simulator::{Carry, SimConfig, Simulator};
use ptts::flu_model;
use ptts::intervention::InterventionSet;
use std::time::Duration;
use synthpop::{Population, PopulationConfig};

/// Threads of this process (Linux procfs).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Wait (bounded) for the thread count to fall to `target`: a joined
/// thread may linger in procfs for a moment after `join` returns.
fn settle_to(target: usize) -> usize {
    for _ in 0..500 {
        if thread_count() <= target {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    thread_count()
}

#[test]
fn dropping_a_threaded_simulator_joins_its_workers() {
    let baseline = thread_count();
    if baseline == 0 {
        return; // no procfs on this platform
    }
    let pop = Population::generate(&PopulationConfig::small("DROP", 600, 3));
    let dist = DataDistribution::build(&pop, Strategy::RoundRobin, 3, 3);
    let cfg = SimConfig {
        days: 1,
        stop_when_extinct: false,
        ..SimConfig::default()
    };
    let seeds = u64::from(cfg.initial_infections);
    for _ in 0..3 {
        let mut sim = Simulator::new(&dist, flu_model(), cfg.clone(), RuntimeConfig::threaded(3));
        let mut carry = Carry::new(InterventionSet::none(), seeds);
        let (days, _, _) = sim.run_days(0, 1, &mut carry);
        assert_eq!(days.len(), 1);
        assert_eq!(
            thread_count(),
            baseline + 3,
            "one thread per PE while running"
        );
        drop(sim);
        assert_eq!(
            settle_to(baseline),
            baseline,
            "PE threads outlived the simulator"
        );
    }
}
