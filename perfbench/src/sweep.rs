//! `sweep`: many runs over one shared world, no runtime messaging.
//!
//! A transmissibility grid spanning the epidemic threshold × replicate
//! seeds over one copy-on-write world, run by `core::ensemble::run_sweep`
//! with one worker per core. The world is built once (set-up is built
//! several times and the median reported); the same sweep then repeats
//! until the time budget is spent. Every member of every sweep must equal
//! the first sweep's, and one seed-chosen member must equal its standalone
//! sequential-oracle run.

use crate::report::{Report, Tally};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::{host, mix};
use episimdemics::chare_rt::RuntimeConfig;
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::ensemble::{run_sweep, CowWorld, EnsembleSpec, ResultStore};
use episimdemics::core::seq::run_sequential;
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::ptts::flu_model;
use episimdemics::synthpop::{Population, PopulationConfig};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Params {
    pub people: u32,
    pub days: u32,
    /// Transmissibility grid.
    pub rs: Vec<f64>,
    pub replicates: u32,
    pub workers: u32,
    /// Partitions of the world's distribution.
    pub partitions: u32,
    /// World builds; the last one is used, the median time reported.
    pub setups: usize,
    pub min_sweeps: usize,
}

impl Params {
    pub fn new(workers: u32) -> Params {
        Params {
            people: 20_000,
            days: 60,
            rs: vec![0.0001, 0.00015, 0.0002, 0.0003],
            replicates: 6,
            workers,
            partitions: 4,
            setups: 3,
            min_sweeps: 2,
        }
    }
}

struct Setup {
    total_s: f64,
    generate_s: f64,
    build_s: f64,
    world_s: f64,
}

/// Seed of the sweep's world. The world is part of the workload's
/// definition, like the `outbreak` state; `--seed` draws the replicate
/// seeds and the checked member, which is what varies between sweeps.
const WORLD_SEED: u64 = 0x5EE9;

fn build_world(p: &Params, tracer: &Tracer) -> (CowWorld, DataDistribution, Setup) {
    let t0 = Instant::now();
    let setup = tracer.begin("setup", SpanId::ROOT);
    let t = Instant::now();
    let pop = tracer.span("Population::generate", setup, |_| {
        Population::generate(&PopulationConfig::small("SWEEP", p.people, WORLD_SEED))
    });
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dist = tracer.span("DataDistribution::build", setup, |_| {
        DataDistribution::build(&pop, Strategy::GraphPartition, p.partitions, WORLD_SEED)
    });
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let world = tracer.span("CowWorld::build", setup, |_| {
        CowWorld::build(&dist, flu_model())
    });
    let world_s = t.elapsed().as_secs_f64();
    tracer.end(setup);
    let timing = Setup {
        total_s: t0.elapsed().as_secs_f64(),
        generate_s,
        build_s,
        world_s,
    };
    (world, dist, timing)
}

fn spec(p: &Params, seed: u64) -> EnsembleSpec {
    let base = SimConfig {
        days: p.days,
        r: p.rs[0],
        seed: mix(seed, 13),
        initial_infections: 6,
        interventions: Default::default(),
        // Every member runs all its days, so a sweep's cost does not
        // hinge on how many members happen to go extinct early.
        stop_when_extinct: false,
    };
    EnsembleSpec::grid(&base, &p.rs, p.replicates)
}

/// Count every member of `store` as one operation: it must equal the
/// same member of `first`, and the `chosen` member must hash to `oracle`.
fn check(
    tally: &mut Tally,
    sweep: usize,
    store: &ResultStore,
    first: &ResultStore,
    chosen: usize,
    oracle: u64,
) {
    for (m, (got, want)) in store
        .all_curves()
        .iter()
        .zip(first.all_curves())
        .enumerate()
    {
        let ok = got == want && (m != chosen || got.hash() == oracle);
        tally.record(ok, || {
            format!(
                "sweep {sweep} member {m}: curve hash {:016x}, first sweep {:016x}, oracle {oracle:016x} (chosen member {chosen})",
                got.hash(),
                want.hash()
            )
        });
    }
}

struct Sweeps {
    /// Peak RSS after the first sweep, so that the figure does not depend
    /// on how many sweeps fit in the budget.
    rss_mb: f64,
    plain: Vec<f64>,
    traced: Vec<f64>,
    events: Vec<f64>,
    infects: Vec<f64>,
    total_events: u64,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    p: &Params,
    world: &CowWorld,
    spec: &EnsembleSpec,
    seconds: f64,
    tracer: &Tracer,
    chosen: usize,
    oracle: u64,
    tally: &mut Tally,
) -> Sweeps {
    let traced = tracer.enabled();
    let mut out = Sweeps {
        rss_mb: 0.0,
        plain: Vec::new(),
        traced: Vec::new(),
        events: Vec::new(),
        infects: Vec::new(),
        total_events: 0,
    };
    let mut first: Option<ResultStore> = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let run = tracer.begin("run", SpanId::ROOT);
    for i in 0.. {
        if i >= p.min_sweeps && start.elapsed() >= budget {
            break;
        }
        let trace_this = traced && i % 2 == 1;
        let t = Instant::now();
        let store = if trace_this {
            tracer.span("run_sweep", run, |_| run_sweep(world, spec, p.workers))
        } else {
            run_sweep(world, spec, p.workers)
        };
        let wall = t.elapsed().as_secs_f64();
        check(
            tally,
            i,
            &store,
            first.as_ref().unwrap_or(&store),
            chosen,
            oracle,
        );
        if trace_this {
            out.traced.push(wall);
            for curve in store.all_curves() {
                for d in &curve.days {
                    out.events.push(d.events as f64);
                    out.infects.push(d.infects_sent as f64);
                    out.total_events += d.events;
                }
            }
        } else {
            out.plain.push(wall);
        }
        if first.is_none() {
            out.rss_mb = host::self_peak_rss_mb();
            first = Some(store);
        }
    }
    tracer.end(run);
    out
}

pub fn run(p: &Params, seed: u64, seconds: f64, tracer: &Tracer, tally: &mut Tally) -> Report {
    let mut report = Report::default();
    // One world alive at a time, so that peak memory is one world's.
    let mut timings = Vec::new();
    let mut built = None;
    for _ in 0..p.setups.max(1) {
        drop(built.take());
        let (world, dist, timing) = build_world(p, tracer);
        timings.push(timing);
        built = Some((world, dist));
    }
    let (world, dist) = built.expect("at least one set-up");
    let med = |f: fn(&Setup) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", med(|s| s.total_s));
    report.set("synthpop.generate_s", med(|s| s.generate_s));
    report.set("distribution.build_s", med(|s| s.build_s));
    report.set("ensemble.world_build_s", med(|s| s.world_s));
    report.set_distribution(&dist);
    drop(dist);

    let spec = spec(p, seed);
    let chosen = (mix(seed, 14) % spec.n_members() as u64) as usize;
    let chosen_cfg = spec.config_for(chosen);
    let t = Instant::now();
    let oracle = run_sequential(&world.pop, &world.ptts, &chosen_cfg);
    let oracle_s = t.elapsed().as_secs_f64();

    let s = measure(
        p,
        &world,
        &spec,
        seconds,
        tracer,
        chosen,
        oracle.hash(),
        tally,
    );
    let members = spec.n_members() as f64;
    let days = f64::from(p.days);
    // The first sweep pays the cold start; later ones are steady.
    let steady = if s.plain.len() > 1 {
        &s.plain[1..]
    } else {
        &s.plain[..]
    };
    let per_day: Vec<f64> = steady.iter().map(|w| w / days).collect();
    let ms: Vec<f64> = s.plain.iter().map(|w| w * 1e3).collect();
    let busy: f64 = s.plain.iter().sum();
    report.samples = s.plain.len();
    report.set("e2e.first_day_s", s.plain[0] / days);
    report.set("s_per_day_p50", median(&per_day));
    report.set("e2e.s_per_day_p90", percentile(&per_day, 90.0));
    report.set("runs_per_s", members * s.plain.len() as f64 / busy);
    report.set("jobs_per_s", s.plain.len() as f64 / busy);
    report.set("first_point_ms_p50", median(&ms));
    report.set("job_ms_p50", median(&ms));
    report.set("peak_rss_mb", s.rss_mb);

    if tracer.enabled() {
        report.set("kernel.events", median(&s.events));
        report.set("kernel.infects", median(&s.infects));
        let worker_ns: f64 = s.traced.iter().sum::<f64>() * 1e9 * f64::from(p.workers);
        report.set(
            "kernel.ns_per_event",
            worker_ns / s.total_events.max(1) as f64,
        );
        report.set("ensemble.sweep_s", median(&s.traced));
        report.set("ensemble.workers", f64::from(p.workers));
        report.set(
            "trace.overhead_share",
            median(&s.traced) / median(&s.plain) - 1.0,
        );
        // The same member through the chare runtime's sequential engine,
        // against the plain-loop oracle.
        let oracle_days = oracle.days.len().max(1) as f64;
        report.set("seq.s_per_day", oracle_s / oracle_days);
        let t = Instant::now();
        let engine = tracer.span("SeqEngine member", SpanId::ROOT, |_| {
            Simulator::from_world(&world, chosen_cfg, RuntimeConfig::sequential(2), None).run()
        });
        let engine_s = t.elapsed().as_secs_f64();
        tally.check_hash(
            "sequential-engine member",
            engine.curve.hash(),
            oracle.hash(),
        );
        report.set("seq.runtime_over_oracle", engine_s / oracle_s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            people: 600,
            days: 8,
            rs: vec![0.0002, 0.0008],
            replicates: 2,
            workers: 2,
            partitions: 2,
            setups: 1,
            min_sweeps: 2,
        }
    }

    #[test]
    fn sweeps_match_each_other_and_the_oracle() {
        let mut tally = Tally::default();
        let report = run(&tiny(), 9, 0.0, &Tracer::new(true), &mut tally);
        // Two sweeps of four members plus the sequential-engine member.
        assert_eq!((tally.attempted, tally.failed), (9, 0), "{:?}", tally.notes);
        assert!(report.bad_end_to_end().is_empty(), "{report:?}");
        assert_eq!(report.get("ensemble.workers"), Some(2.0));
    }

    #[test]
    fn wrong_oracle_hash_fails_the_chosen_member_only() {
        let p = tiny();
        let (world, _, _) = build_world(&p, &Tracer::new(false));
        let spec = spec(&p, 9);
        let mut tally = Tally::default();
        let tracer = Tracer::new(false);
        measure(&p, &world, &spec, 0.0, &tracer, 1, 0x1234, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (8, 2));
    }
}
