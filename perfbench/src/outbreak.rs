//! `outbreak` and `outbreak_net`: the paper's single big run.
//!
//! California at scale 1e-3, GP-splitLoc distribution with one partition
//! per PE, 120 days with `stop_when_extinct = false`. Each repetition is
//! what a user pays for one run: generate the population, build the
//! distribution, start the engine, simulate every day. Repetitions go on
//! until the time budget is spent. The sequential oracle's curve, run once
//! on the same world before the timed repetitions, is the reference every
//! repetition's curve hash must equal.
//!
//! Under the net engine the worker processes re-execute this binary with
//! the same arguments (`EPISIM_NET_CHILD_ARGS`); [`net_worker`] rebuilds
//! the same world from the seed and joins the run it was spawned for.

use crate::report::{Report, Tally};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::{alloc, host, mix};
use episimdemics::chare_rt::{align_to_invocation, PeStats, RuntimeConfig};
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::output::{curve_hash, DayStats};
use episimdemics::core::seq::run_sequential;
use episimdemics::core::simulator::{Carry, DayPerf, SimConfig, Simulator};
use episimdemics::ptts::flu_model;
use episimdemics::synthpop::state::by_code;
use episimdemics::synthpop::{Population, PopulationConfig};
use std::time::{Duration, Instant};

/// Which engine runs the days.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One process, one OS thread per PE.
    Threads { pes: u32 },
    /// `procs` OS processes with `pes_per_proc` PEs each.
    Net { procs: u32, pes_per_proc: u32 },
}

impl Engine {
    pub fn pes(self) -> u32 {
        match self {
            Engine::Threads { pes } => pes,
            Engine::Net {
                procs,
                pes_per_proc,
            } => procs * pes_per_proc,
        }
    }

    pub fn procs(self) -> u32 {
        match self {
            Engine::Threads { .. } => 1,
            Engine::Net { procs, .. } => procs,
        }
    }

    fn runtime(self) -> RuntimeConfig {
        match self {
            Engine::Threads { pes } => RuntimeConfig::threaded(pes),
            Engine::Net { procs, .. } => RuntimeConfig::net(self.pes(), procs),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    /// Population scale relative to the full state.
    pub scale: f64,
    pub days: u32,
    pub engine: Engine,
    /// Cold starts (set-up and day 0 only) before the repetitions: more
    /// samples of what a user waits for before the first curve point.
    pub cold_starts: usize,
    /// Repetitions to run even when the time budget is spent.
    pub min_reps: usize,
}

impl Params {
    pub fn new(engine: Engine) -> Params {
        Params {
            scale: 1e-3,
            days: 120,
            engine,
            cold_starts: 6,
            min_reps: 2,
        }
    }
}

/// Seed of the synthetic California and of its partitioning. The paper
/// partitions one population per state once; `--seed` draws the epidemic.
const WORLD_SEED: u64 = 0xCA;

fn generate(p: &Params) -> Population {
    let counts = by_code("CA").expect("CA is a known state").scaled(p.scale);
    Population::generate(&PopulationConfig::from_counts(counts, WORLD_SEED))
}

fn distribute(p: &Params, pop: &Population) -> DataDistribution {
    let k = p.engine.pes();
    DataDistribution::build(pop, Strategy::GraphPartitionSplit, k, WORLD_SEED)
}

fn sim_config(p: &Params, seed: u64) -> SimConfig {
    SimConfig {
        days: p.days,
        seed: mix(seed, 3),
        stop_when_extinct: false,
        ..SimConfig::default()
    }
}

/// One simulated day as the benchmark saw it.
struct Day {
    wall_s: f64,
    stats: DayStats,
    perf: DayPerf,
    allocs: u64,
    alloc_bytes: u64,
}

/// One repetition: set-up plus every day.
struct Rep {
    setup_s: f64,
    generate_s: f64,
    build_s: f64,
    new_s: f64,
    total_s: f64,
    days: Vec<Day>,
    /// Peak RSS of this process and of the net workers, at the end.
    rss_mb: f64,
}

fn rep(p: &Params, seed: u64, n_days: u32, tracer: &Tracer, parent: SpanId) -> Rep {
    let cfg = sim_config(p, seed);
    let rep_span = tracer.begin("rep", parent);
    let t0 = Instant::now();
    let setup = tracer.begin("setup", rep_span);
    let t = Instant::now();
    let pop = tracer.span("Population::generate", setup, |_| generate(p));
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dist = tracer.span("DataDistribution::build", setup, |_| distribute(p, &pop));
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut sim = tracer.span("Simulator::new", setup, |_| {
        Simulator::new(&dist, flu_model(), cfg.clone(), p.engine.runtime())
    });
    let new_s = t.elapsed().as_secs_f64();
    tracer.end(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let seeds = cfg.initial_infections.min(pop.n_people()) as u64;
    let mut carry = Carry::new(cfg.interventions.clone(), seeds);
    let run = tracer.begin("run", rep_span);
    let mut days = Vec::with_capacity(n_days as usize);
    for day in 0..n_days {
        let (a0, b0) = alloc::snapshot();
        let t = Instant::now();
        let (mut stats, mut perf, _) = tracer.span("Simulator::run_days", run, |_| {
            sim.run_days(day, day + 1, &mut carry)
        });
        let wall_s = t.elapsed().as_secs_f64();
        let (a1, b1) = alloc::snapshot();
        days.push(Day {
            wall_s,
            stats: stats.pop().expect("one day simulated"),
            perf: perf.pop().expect("one day of counters"),
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        });
    }
    tracer.end(run);
    let rss_mb = host::self_peak_rss_mb() + host::children_peak_rss_mb();
    tracer.span("teardown", rep_span, |_| drop(sim));
    let total_s = t0.elapsed().as_secs_f64();
    tracer.end(rep_span);
    Rep {
        setup_s,
        generate_s,
        build_s,
        new_s,
        total_s,
        days,
        rss_mb,
    }
}

/// Worker-process side of the net engine: rebuild the world, join run
/// number `target`, simulate the same days (one for a cold start, as
/// [`measure`] orders them). Dropping the simulator ends the process.
pub fn net_worker(p: &Params, seed: u64, target: u64) {
    let days = if (target as usize) < p.cold_starts {
        1
    } else {
        p.days
    };
    let pop = generate(p);
    let dist = distribute(p, &pop);
    let cfg = sim_config(p, seed);
    let seeds = cfg.initial_infections.min(pop.n_people()) as u64;
    let mut carry = Carry::new(cfg.interventions.clone(), seeds);
    align_to_invocation(target);
    let mut sim = Simulator::new(&dist, flu_model(), cfg, p.engine.runtime());
    for day in 0..days {
        sim.run_days(day, day + 1, &mut carry);
    }
}

/// Steady days: every day after day 0, which pays the warm-up.
fn steady(reps: &[Rep]) -> impl Iterator<Item = &Day> {
    reps.iter().flat_map(|r| r.days.iter().skip(1))
}

fn phase_totals(perf: &DayPerf) -> PeStats {
    let mut t = perf.person_phase.totals();
    t.merge(&perf.location_phase.totals());
    t.merge(&perf.apply_phase.totals());
    t
}

/// Median over steady days of `f(day)`.
fn day_median(reps: &[Rep], f: impl Fn(&Day) -> f64) -> f64 {
    median(&steady(reps).map(f).collect::<Vec<_>>())
}

fn s_per_day_p50(reps: &[Rep]) -> f64 {
    day_median(reps, |d| d.wall_s)
}

/// What [`measure`] ran: cold starts, then untraced and traced
/// repetitions.
struct Runs {
    cold_starts: Vec<Rep>,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
}

/// Run the cold starts and the timed repetitions, checking every curve
/// against the same days of the `reference` curve.
fn measure(
    p: &Params,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    reference: &[DayStats],
    tally: &mut Tally,
) -> Runs {
    let off = Tracer::new(false);
    let mut check = |what: String, r: &Rep| {
        let got = curve_hash(&r.days.iter().map(|d| d.stats).collect::<Vec<_>>());
        tally.check_hash(&what, got, curve_hash(&reference[..r.days.len()]));
    };
    let mut runs = Runs {
        cold_starts: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
    };
    for i in 0..p.cold_starts {
        let r = rep(p, seed, 1, &off, SpanId::ROOT);
        check(format!("cold start {i}"), &r);
        runs.cold_starts.push(r);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let workload = tracer.begin("workload", SpanId::ROOT);
    // A traced run alternates untraced and traced repetitions, so that the
    // tracing overhead is measured on the same host at the same time.
    for i in 0.. {
        if runs.plain.len() + runs.traced.len() >= p.min_reps && start.elapsed() >= budget {
            break;
        }
        let trace_this = tracer.enabled() && i % 2 == 1;
        alloc::set_counting(trace_this);
        let r = if trace_this {
            rep(p, seed, p.days, tracer, workload)
        } else {
            rep(p, seed, p.days, &off, SpanId::ROOT)
        };
        alloc::set_counting(false);
        eprintln!(
            "perfbench: repetition {i}{}: set-up {:.4} s (distribute {:.4} s, engine {:.4} s), day 0 {:.4} s, steady median {:.4} s/day, total {:.3} s",
            if trace_this { " (traced)" } else { "" },
            r.setup_s,
            r.build_s,
            r.new_s,
            r.days[0].wall_s,
            s_per_day_p50(std::slice::from_ref(&r)),
            r.total_s
        );
        check(format!("repetition {i}"), &r);
        if trace_this {
            runs.traced.push(r);
        } else {
            runs.plain.push(r);
        }
    }
    tracer.end(workload);
    runs
}

/// The whole workload: oracle, timed repetitions, metrics.
pub fn run(p: &Params, seed: u64, seconds: f64, tracer: &Tracer, tally: &mut Tally) -> Report {
    let mut report = Report::default();

    // The reference curve and the distribution's static quality, on a
    // world built outside any timed window.
    let (reference, oracle_s) = {
        let pop = generate(p);
        let dist = distribute(p, &pop);
        report.set_distribution(&dist);
        let t = Instant::now();
        let curve = run_sequential(&pop, &flu_model(), &sim_config(p, seed));
        (curve.days, t.elapsed().as_secs_f64())
    };

    let runs = measure(p, seed, seconds, tracer, &reference, tally);
    let (plain, traced_reps) = (&runs.plain, &runs.traced);

    // End-to-end metrics, from the cold starts and untraced repetitions.
    let starts: Vec<&Rep> = runs.cold_starts.iter().chain(plain).collect();
    let setup: Vec<f64> = starts.iter().map(|r| r.setup_s).collect();
    let first_day: Vec<f64> = starts.iter().map(|r| r.days[0].wall_s).collect();
    let first_point: Vec<f64> = starts
        .iter()
        .map(|r| (r.setup_s + r.days[0].wall_s) * 1e3)
        .collect();
    let job: Vec<f64> = plain.iter().map(|r| r.total_s * 1e3).collect();
    let walls: Vec<f64> = steady(plain).map(|d| d.wall_s).collect();
    let busy_s: f64 = plain.iter().map(|r| r.total_s).sum();
    report.samples = starts.len();
    report.set("setup_s", median(&setup));
    report.set("e2e.first_day_s", median(&first_day));
    report.set("s_per_day_p50", median(&walls));
    report.set("e2e.s_per_day_p90", percentile(&walls, 90.0));
    report.set("runs_per_s", plain.len() as f64 / busy_s);
    report.set("jobs_per_s", plain.len() as f64 / busy_s);
    report.set("first_point_ms_p50", median(&first_point));
    report.set("job_ms_p50", median(&job));
    // After the first cold start: one simulator's footprint, taken before
    // the simulators that later runs drop without dismantling (README.md,
    // "Known blind spots") add theirs, and whatever the budget fits.
    let first = runs.cold_starts.first().unwrap_or(&plain[0]);
    report.set("peak_rss_mb", first.rss_mb);

    if tracer.enabled() {
        layer_metrics(p, plain, traced_reps, oracle_s, &mut report);
    }
    report
}

/// Per-layer metrics from the traced repetitions.
fn layer_metrics(p: &Params, plain: &[Rep], reps: &[Rep], oracle_s: f64, report: &mut Report) {
    let pes = f64::from(p.engine.pes());
    let ms = |ns: u64| ns as f64 / 1e6;
    report.set(
        "synthpop.generate_s",
        median(&reps.iter().map(|r| r.generate_s).collect::<Vec<_>>()),
    );
    report.set(
        "distribution.build_s",
        median(&reps.iter().map(|r| r.build_s).collect::<Vec<_>>()),
    );
    report.set(
        "simulator.new_s",
        median(&reps.iter().map(|r| r.new_s).collect::<Vec<_>>()),
    );
    report.set(
        "simulator.person_busy_ms",
        day_median(reps, |d| ms(d.perf.person_phase.totals().busy_ns)),
    );
    report.set(
        "simulator.location_busy_ms",
        day_median(reps, |d| ms(d.perf.location_phase.totals().busy_ns)),
    );
    report.set(
        "simulator.apply_busy_ms",
        day_median(reps, |d| ms(d.perf.apply_phase.totals().busy_ns)),
    );
    report.set(
        "simulator.unattributed_share",
        day_median(reps, |d| {
            1.0 - phase_totals(&d.perf).busy_ns as f64 / 1e9 / (pes * d.wall_s)
        }),
    );
    report.set("kernel.events", day_median(reps, |d| d.stats.events as f64));
    report.set(
        "kernel.infects",
        day_median(reps, |d| d.stats.infects_sent as f64),
    );
    report.set(
        "kernel.ns_per_event",
        day_median(reps, |d| {
            d.perf.location_phase.totals().busy_ns as f64 / d.stats.events.max(1) as f64
        }),
    );
    let t = |d: &Day| phase_totals(&d.perf);
    report.set(
        "chare-rt.msgs",
        day_median(reps, |d| t(d).sent_total() as f64),
    );
    report.set(
        "chare-rt.msgs_cross_pe",
        day_median(reps, |d| (t(d).sent_intra + t(d).sent_remote) as f64),
    );
    report.set(
        "chare-rt.packets",
        day_median(reps, |d| t(d).network_packets as f64),
    );
    report.set(
        "chare-rt.msgs_per_packet",
        day_median(reps, |d| {
            let s = t(d);
            s.sent_remote as f64 / s.network_packets.max(1) as f64
        }),
    );
    report.set("chare-rt.allocs", day_median(reps, |d| d.allocs as f64));
    report.set(
        "chare-rt.alloc_bytes",
        day_median(reps, |d| d.alloc_bytes as f64),
    );
    if let Engine::Net { .. } = p.engine {
        report.set(
            "net.frames",
            day_median(reps, |d| {
                (t(d).wire_frames_sent + t(d).shm_frames_sent) as f64
            }),
        );
        report.set("net.bytes", day_median(reps, |d| t(d).remote_bytes as f64));
        report.set(
            "net.msgs_per_frame",
            day_median(reps, |d| {
                let s = t(d);
                let msgs = s.wire_msgs_batch + s.wire_msgs_idle + s.wire_msgs_eager;
                let flushes = s.wire_flush_batch + s.wire_flush_idle + s.wire_flush_eager;
                msgs as f64 / flushes.max(1) as f64
            }),
        );
        report.set(
            "net.flush_batch",
            day_median(reps, |d| t(d).wire_flush_batch as f64),
        );
        report.set(
            "net.flush_idle",
            day_median(reps, |d| t(d).wire_flush_idle as f64),
        );
        report.set(
            "net.flush_eager",
            day_median(reps, |d| t(d).wire_flush_eager as f64),
        );
        report.set("net.agg_batch", day_median(reps, |d| t(d).agg_batch as f64));
        report.set("net.shm_parks", day_median(reps, |d| t(d).shm_parks as f64));
    }
    let oracle_per_day = oracle_s / f64::from(p.days);
    report.set("seq.s_per_day", oracle_per_day);
    report.set(
        "seq.runtime_over_oracle",
        s_per_day_p50(plain) / oracle_per_day,
    );
    report.set(
        "trace.overhead_share",
        s_per_day_p50(reps) / s_per_day_p50(plain) - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            scale: 2e-5,
            days: 6,
            engine: Engine::Threads { pes: 2 },
            cold_starts: 1,
            min_reps: 1,
        }
    }

    #[test]
    fn repetitions_match_the_oracle() {
        let p = tiny();
        let mut tally = Tally::default();
        let report = run(&p, 5, 0.0, &Tracer::new(false), &mut tally);
        // One cold start and one repetition.
        assert_eq!((tally.attempted, tally.failed), (2, 0), "{:?}", tally.notes);
        assert!(report.bad_end_to_end().is_empty(), "{:?}", report);
    }

    #[test]
    fn wrong_reference_counts_every_repetition_as_failed() {
        let p = tiny();
        let cfg = sim_config(&p, 5);
        let mut reference = run_sequential(&generate(&p), &flu_model(), &cfg).days;
        reference[0].visits += 1;
        let mut tally = Tally::default();
        let runs = measure(&p, 5, 0.0, &Tracer::new(false), &reference, &mut tally);
        assert_eq!((runs.cold_starts.len(), runs.plain.len()), (1, 1));
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }

    #[test]
    fn traced_run_reports_overhead_and_unattributed_share() {
        let mut p = tiny();
        p.min_reps = 2;
        let mut tally = Tally::default();
        let tracer = Tracer::new(true);
        let report = run(&p, 5, 0.0, &tracer, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        for name in ["simulator.unattributed_share", "trace.overhead_share"] {
            assert!(report.get(name).is_some(), "{name}");
        }
        let days = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "Simulator::run_days")
            .count();
        assert_eq!(days, p.days as usize);
        alloc::set_counting(false);
    }
}
