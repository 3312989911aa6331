//! `service`: many tiny independent worlds through the episerve control
//! plane.
//!
//! An in-process `Server` with one pool worker per core, driven by one
//! open-loop client: arrivals are seeded Poisson at a fixed rate, each one
//! small job from a mix of the Seq, Threads and Vt engines and two
//! priorities. A fixed share of jobs is paused after a few days and
//! resumed (a checkpoint write and read); another share is cancelled.
//! Every job is timed from the moment it was due, so a stalled generator
//! or a full queue shows as latency. After the session every completed
//! job's hash must equal `episerve::reference_hash` of its spec, and every
//! job's first curve point must arrive within [`FIRST_POINT_LIMIT_MS`].

use crate::report::{Report, Tally};
use crate::stats::{max, median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::{host, mix, Rng};
use episimdemics::core::distribution::{DataDistribution, Strategy};
use episimdemics::core::engine::EngineChoice;
use episimdemics::core::simulator::{SimConfig, Simulator};
use episimdemics::episerve::{
    reference_hash, Client, ClientError, EngineSel, Event, EventStream, JobId, JobSpec, JobState,
    PoolConfig, Priority, Server, ServerConfig,
};
use episimdemics::ptts::dsl::{Scenario, FLU_DSL};
use episimdemics::ptts::intervention::InterventionSet;
use episimdemics::synthpop::{Population, PopulationConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A job whose first curve point comes later than this after its due
/// time counts as failed.
pub const FIRST_POINT_LIMIT_MS: f64 = 2000.0;

#[derive(Debug, Clone)]
pub struct Params {
    /// Pool workers.
    pub workers: u32,
    /// Mean arrivals per second.
    pub rate: f64,
    /// Jobs to submit at least, whatever the time budget.
    pub min_jobs: usize,
    pub pop_range: (u32, u32),
    pub day_range: (u32, u32),
    pub pause_share: f64,
    pub cancel_share: f64,
    /// Per-day pacing of the jobs that are paused or cancelled, so that
    /// the request lands mid-run.
    pub throttle_ms: u32,
    /// Server start-ups; the median time is reported.
    pub setups: usize,
    /// Served jobs whose worlds a traced run rebuilds directly.
    pub replicas: usize,
    /// Checkpoints and the transition log go here.
    pub data_dir: PathBuf,
}

impl Params {
    pub fn new(workers: u32, data_dir: PathBuf) -> Params {
        Params {
            workers,
            rate: 14.0,
            min_jobs: 200,
            pop_range: (300, 1500),
            day_range: (20, 60),
            pause_share: 0.10,
            cancel_share: 0.05,
            throttle_ms: 3,
            setups: 41,
            replicas: 16,
            data_dir,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    None,
    Pause,
    Cancel,
}

/// One arrival of the open-loop schedule.
#[derive(Debug, Clone)]
struct Planned {
    due: Duration,
    spec: JobSpec,
    action: Action,
    /// Simulation inputs, kept for the traced replicas.
    pop: u32,
    pop_seed: u64,
    days: u32,
    r: f64,
    sim_seed: u64,
}

/// `n` values spread evenly over `[lo, hi)`, in a seeded order.
fn stratified(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|k| lo + (hi - lo) * (k as f64 + 0.5) / n as f64)
        .collect();
    rng.shuffle(&mut v);
    v
}

/// The open-loop schedule. Every seed gets the same mix of job shapes
/// (sizes, lengths, engines, priorities and actions in fixed proportions,
/// spread evenly over their ranges) in a different order and pairing,
/// with its own population and epidemic seeds. Arrival times are `n`
/// uniform points over `n / rate` seconds: a Poisson process conditioned
/// on its count, so every seed offers the same load.
fn schedule(p: &Params, seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = Rng::new(mix(seed, 21));
    let span = n as f64 / p.rate;
    let mut due: Vec<f64> = (0..n).map(|_| span * rng.unit()).collect();
    due.sort_by(f64::total_cmp);
    let pops = stratified(
        &mut rng,
        n,
        f64::from(p.pop_range.0),
        f64::from(p.pop_range.1),
    );
    let days = stratified(
        &mut rng,
        n,
        f64::from(p.day_range.0),
        f64::from(p.day_range.1),
    );
    let rs = stratified(&mut rng, n, 0.0003, 0.0008);
    // Action, engine and priority as fixed shares of a stratified unit.
    let actions = stratified(&mut rng, n, 0.0, 1.0);
    let engines = stratified(&mut rng, n, 0.0, 1.0);
    let priorities = stratified(&mut rng, n, 0.0, 1.0);
    (0..n)
        .map(|i| {
            let action = if actions[i] < p.pause_share {
                Action::Pause
            } else if actions[i] < p.pause_share + p.cancel_share {
                Action::Cancel
            } else {
                Action::None
            };
            let engine = [
                EngineSel::Seq,
                EngineSel::Seq,
                EngineSel::Threads,
                EngineSel::Vt,
            ][(engines[i] * 4.0) as usize];
            let pop = pops[i] as u32;
            let mut days = days[i] as u32;
            if action != Action::None {
                days = days.max(40);
            }
            let r = rs[i];
            let sim_seed = rng.next() % 1_000_000;
            let pop_seed = rng.next() % 1_000_000;
            let dsl = format!("{FLU_DSL}\nsim days={days} r={r} seed={sim_seed} initial=6\n");
            let mut spec = JobSpec::dsl(&format!("job-{i}"), &dsl, engine);
            spec.priority = if priorities[i] < 0.2 {
                Priority::High
            } else {
                Priority::Normal
            };
            spec.hints.pop_size = pop;
            spec.hints.pop_seed = pop_seed;
            // A Threads job runs one OS thread per PE while its pool
            // worker waits; one PE keeps compute threads <= pool workers.
            spec.hints.n_pes = if engine == EngineSel::Threads { 1 } else { 2 };
            spec.hints.n_partitions = 4;
            if action != Action::None {
                spec.hints.throttle_ms = p.throttle_ms;
            }
            Planned {
                due: Duration::from_secs_f64(due[i]),
                spec,
                action,
                pop,
                pop_seed,
                days,
                r,
                sim_seed,
            }
        })
        .collect()
}

/// What the client saw of one job.
#[derive(Debug)]
struct Seen {
    idx: usize,
    job: JobId,
    due: Instant,
    submitted: Instant,
    submit_ms: f64,
    subscribed: Instant,
    /// First `Running` state event (missed when the job was leased before
    /// the subscription attached; `subscribed` then bounds it).
    running: Option<Instant>,
    days: Vec<Instant>,
    pause_req: Option<Instant>,
    paused: Option<Instant>,
    resume_req: Option<Instant>,
    resumed_running: Option<Instant>,
    resume_day: Option<Instant>,
    terminal: Option<(Instant, Event)>,
    lagged: u64,
    error: Option<String>,
}

impl Seen {
    fn started(&self) -> Instant {
        self.running.unwrap_or(self.subscribed)
    }

    fn ms(a: Instant, b: Instant) -> f64 {
        b.saturating_duration_since(a).as_secs_f64() * 1e3
    }
}

/// Send one lifecycle request on the follower's control connection,
/// opened on first use.
fn control(
    addr: &str,
    ctl: &mut Option<Client>,
    job: JobId,
    request: fn(&mut Client, JobId) -> Result<JobState, ClientError>,
) -> Result<(), String> {
    let client = match ctl {
        Some(c) => c,
        None => ctl.insert(Client::connect(addr).map_err(|e| format!("connect: {e}"))?),
    };
    request(client, job)
        .map(|_| ())
        .map_err(|e| format!("lifecycle request: {e}"))
}

/// Follow one job's stream to its terminal event, pausing or cancelling
/// it on the way when the plan says so.
fn follow(addr: &str, plan: &Planned, seen: &mut Seen) -> Result<(), String> {
    let (_, stream) = EventStream::open(addr, seen.job).map_err(|e| format!("subscribe: {e}"))?;
    seen.subscribed = Instant::now();
    let mut ctl: Option<Client> = None;
    for ev in stream {
        let ev = ev.map_err(|e| format!("stream: {e}"))?;
        let now = Instant::now();
        match &ev {
            Event::State {
                state: JobState::Running,
                ..
            } => {
                if seen.paused.is_some() {
                    seen.resumed_running.get_or_insert(now);
                } else {
                    seen.running.get_or_insert(now);
                }
            }
            Event::State {
                state: JobState::Paused,
                ..
            } => {
                seen.paused = Some(now);
                control(addr, &mut ctl, seen.job, Client::resume)?;
                seen.resume_req = Some(Instant::now());
            }
            Event::Day { stats, .. } => {
                seen.days.push(now);
                if seen.resume_req.is_some() && seen.resume_day.is_none() {
                    seen.resume_day = Some(now);
                }
                if stats.day >= 2 && seen.pause_req.is_none() && plan.action != Action::None {
                    seen.pause_req = Some(now);
                    match plan.action {
                        Action::Pause => control(addr, &mut ctl, seen.job, Client::pause)?,
                        _ => control(addr, &mut ctl, seen.job, Client::cancel)?,
                    }
                }
            }
            Event::Lagged { missed, .. } => seen.lagged += missed,
            _ => {}
        }
        if ev.is_terminal() {
            seen.terminal = Some((now, ev));
            return Ok(());
        }
    }
    Err("stream ended without a terminal event".to_string())
}

struct Session {
    seen: Vec<Seen>,
    start: Instant,
    late_ms: Vec<f64>,
}

fn session(plans: &[Planned], addr: &str, tracer: &Tracer) -> Session {
    let mut client = Client::connect(addr).expect("client connects to a running server");
    let root = tracer.begin("session", SpanId::ROOT);
    let start = Instant::now();
    let mut late_ms = Vec::with_capacity(plans.len());
    let mut seen = Vec::with_capacity(plans.len());
    std::thread::scope(|scope| {
        let mut followers = Vec::new();
        for (idx, plan) in plans.iter().enumerate() {
            let due = start + plan.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            late_ms.push(Seen::ms(due, now));
            // Every other job is traced, so a traced run can compare the
            // two halves of one session.
            let traced = tracer.enabled() && idx % 2 == 1;
            let job_span = if traced {
                tracer.begin("job", root)
            } else {
                SpanId::ROOT
            };
            let submit_span = if traced {
                tracer.begin("Client::submit", job_span)
            } else {
                SpanId::ROOT
            };
            let submitted = client.submit(&plan.spec);
            tracer.end(submit_span);
            let done = Instant::now();
            let job = match submitted {
                Ok(job) => job,
                Err(e) => {
                    tracer.end(job_span);
                    seen.push(Seen {
                        error: Some(format!("submit: {e}")),
                        ..blank(idx, 0, due, done)
                    });
                    continue;
                }
            };
            let mut s = blank(idx, job, due, done);
            s.submit_ms = Seen::ms(now, done);
            followers.push(scope.spawn(move || {
                let stream_span = if traced {
                    tracer.begin("stream", job_span)
                } else {
                    SpanId::ROOT
                };
                if let Err(e) = follow(addr, plan, &mut s) {
                    s.error = Some(e);
                }
                tracer.end(stream_span);
                tracer.end(job_span);
                s
            }));
            // Reap finished followers as we go.
            let (finished, running): (Vec<_>, Vec<_>) =
                followers.into_iter().partition(|h| h.is_finished());
            followers = running;
            seen.extend(finished.into_iter().map(|h| h.join().expect("follower")));
        }
        seen.extend(followers.into_iter().map(|h| h.join().expect("follower")));
    });
    tracer.end(root);
    seen.sort_by_key(|s| s.idx);
    Session {
        seen,
        start,
        late_ms,
    }
}

fn blank(idx: usize, job: JobId, due: Instant, submitted: Instant) -> Seen {
    Seen {
        idx,
        job,
        due,
        submitted,
        submit_ms: 0.0,
        subscribed: submitted,
        running: None,
        days: Vec::new(),
        pause_req: None,
        paused: None,
        resume_req: None,
        resumed_running: None,
        resume_day: None,
        terminal: None,
        lagged: 0,
        error: None,
    }
}

/// `episerve::reference_hash` of every job expected to complete, on one
/// thread per pool worker.
fn references(p: &Params, plans: &[Planned]) -> Vec<Option<Result<u64, String>>> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<Result<u64, String>>> = vec![None; plans.len()];
    let chunks: Vec<Vec<(usize, Result<u64, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p.workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(i) else { break };
                        if plan.action != Action::Cancel {
                            mine.push((i, reference_hash(&plan.spec)));
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker"))
            .collect()
    });
    for (i, r) in chunks.into_iter().flatten() {
        out[i] = Some(r);
    }
    out
}

/// Check one job; `reference` is `None` for jobs meant to be cancelled.
fn check(tally: &mut Tally, plan: &Planned, seen: &Seen, reference: Option<&Result<u64, String>>) {
    let what = format!("job {} ({})", seen.idx, plan.spec.engine.as_str());
    let problem = if let Some(e) = &seen.error {
        Some(e.clone())
    } else {
        match (&seen.terminal, plan.action, reference) {
            (
                Some((
                    _,
                    Event::State {
                        state: JobState::Cancelled,
                        ..
                    },
                )),
                Action::Cancel,
                _,
            ) => None,
            (Some((_, Event::Completed { curve_hash, .. })), a, Some(Ok(want)))
                if a != Action::Cancel =>
            {
                (curve_hash != want)
                    .then(|| format!("curve hash {curve_hash:016x} != reference {want:016x}"))
            }
            (_, _, Some(Err(e))) => Some(format!("reference run failed: {e}")),
            (terminal, action, _) => Some(format!(
                "ended with {:?} where {action:?} was planned",
                terminal.as_ref().map(|t| &t.1)
            )),
        }
    };
    let first_ms = seen.days.first().map(|&d| Seen::ms(seen.due, d));
    let problem = problem.or_else(|| match first_ms {
        Some(ms) if ms > FIRST_POINT_LIMIT_MS => Some(format!(
            "first point after {ms:.1} ms, limit {FIRST_POINT_LIMIT_MS} ms"
        )),
        None => Some("no curve point".to_string()),
        _ => None,
    });
    tally.record(problem.is_none(), || {
        format!("{what}: {}", problem.unwrap_or_default())
    });
}

fn start_server(p: &Params) -> (Server, f64) {
    let mut cfg = ServerConfig::local(p.data_dir.clone());
    cfg.pool = PoolConfig {
        workers: p.workers as usize,
    };
    // Deep enough that a burst of arrivals queues instead of bouncing.
    cfg.queue_cap = 1 << 16;
    let t = Instant::now();
    let server = Server::start(cfg).expect("server starts on loopback");
    (server, t.elapsed().as_secs_f64())
}

fn stop_server(server: Server) {
    let mut c = Client::connect(&server.addr().to_string()).expect("connect for shutdown");
    c.shutdown().expect("server acknowledges shutdown");
    server.join();
}

pub fn run(p: &Params, seed: u64, seconds: f64, tracer: &Tracer, tally: &mut Tally) -> Report {
    let mut report = Report::default();
    let n = p.min_jobs.max((p.rate * seconds).round() as usize);
    let plans = schedule(p, seed, n);
    let _ = std::fs::remove_dir_all(&p.data_dir);

    // Set-up: server start and the client's first connection, several
    // times; the last server serves the session.
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut server = None;
    for i in 0..p.setups.max(1) {
        let span = tracer.begin("setup", SpanId::ROOT);
        let t = Instant::now();
        let (s, start_s) = tracer.span("Server::start", span, |_| start_server(p));
        drop(Client::connect(&s.addr().to_string()).expect("first connection"));
        setups.push(t.elapsed().as_secs_f64());
        starts.push(start_s);
        tracer.end(span);
        if i + 1 < p.setups.max(1) {
            stop_server(s);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("a server for the session");
    let addr = server.addr().to_string();
    let s = session(&plans, &addr, tracer);
    stop_server(server);
    let rss = host::self_peak_rss_mb();
    let _ = std::fs::remove_dir_all(&p.data_dir);

    let refs = references(p, &plans);
    for (plan, seen) in plans.iter().zip(&s.seen) {
        check(tally, plan, seen, refs[seen.idx].as_ref());
    }

    // End-to-end metrics.
    let seen = &s.seen;
    let first_point: Vec<f64> = seen
        .iter()
        .filter_map(|j| j.days.first().map(|&d| Seen::ms(j.due, d)))
        .collect();
    let job_ms: Vec<f64> = seen
        .iter()
        .filter_map(|j| j.terminal.as_ref().map(|t| Seen::ms(j.due, t.0)))
        .collect();
    // From the accepted submit: the `Running` event may be missed.
    let first_day: Vec<f64> = seen
        .iter()
        .filter_map(|j| j.days.first().map(|&d| Seen::ms(j.submitted, d) / 1e3))
        .collect();
    let unpaced = |j: &&Seen| plans[j.idx].action == Action::None && j.days.len() > 1;
    let per_day = |j: &Seen| {
        let (a, b) = (j.days[0], j.days[j.days.len() - 1]);
        Seen::ms(a, b) / 1e3 / (j.days.len() - 1) as f64
    };
    let s_per_day: Vec<f64> = seen.iter().filter(unpaced).map(per_day).collect();
    let end = seen
        .iter()
        .filter_map(|j| j.terminal.as_ref().map(|t| t.0))
        .max()
        .unwrap_or(s.start);
    let window = Seen::ms(s.start, end) / 1e3;
    let completed = seen
        .iter()
        .filter(|j| matches!(j.terminal, Some((_, Event::Completed { .. }))))
        .count();
    report.samples = seen.len();
    report.set("setup_s", median(&setups));
    report.set("e2e.first_day_s", median(&first_day));
    report.set("s_per_day_p50", median(&s_per_day));
    report.set("e2e.s_per_day_p90", percentile(&s_per_day, 90.0));
    report.set("runs_per_s", completed as f64 / window);
    report.set("jobs_per_s", job_ms.len() as f64 / window);
    report.set("first_point_ms_p50", median(&first_point));
    report.set("job_ms_p50", median(&job_ms));
    report.set("peak_rss_mb", rss);

    if tracer.enabled() {
        report.set("e2e.first_point_ms_p95", percentile(&first_point, 95.0));
        report.set("e2e.job_ms_p95", percentile(&job_ms, 95.0));
        layer_metrics(p, &plans, &s, &refs, window, &starts, &mut report);
    }
    report
}

fn layer_metrics(
    p: &Params,
    plans: &[Planned],
    s: &Session,
    refs: &[Option<Result<u64, String>>],
    window: f64,
    starts: &[f64],
    report: &mut Report,
) {
    let seen = &s.seen;
    let col = |f: &dyn Fn(&Seen) -> Option<f64>| seen.iter().filter_map(f).collect::<Vec<_>>();
    let queue_wait = col(&|j| Some(Seen::ms(j.submitted, j.started())));
    let job_setup = col(&|j| j.days.first().map(|&d| Seen::ms(j.started(), d)));
    let gaps: Vec<f64> = seen
        .iter()
        .filter(|j| plans[j.idx].action == Action::None)
        .flat_map(|j| j.days.windows(2).map(|w| Seen::ms(w[0], w[1])))
        .collect();
    let busy_ms: f64 = seen
        .iter()
        .filter_map(|j| {
            let (end, _) = j.terminal.as_ref()?;
            let idle = match (j.paused, j.resumed_running) {
                (Some(a), Some(b)) => Seen::ms(a, b),
                _ => 0.0,
            };
            Some(Seen::ms(j.started(), *end) - idle)
        })
        .sum();
    report.set("serve.server_start_s", median(starts));
    report.set("serve.submit_ms_p50", median(&col(&|j| Some(j.submit_ms))));
    report.set("serve.queue_wait_ms_p50", median(&queue_wait));
    report.set("serve.queue_wait_ms_p95", percentile(&queue_wait, 95.0));
    report.set("serve.job_setup_ms_p50", median(&job_setup));
    report.set("serve.day_gap_ms_p50", median(&gaps));
    report.set(
        "serve.pause_ms_p50",
        median(&col(&|j| Some(Seen::ms(j.pause_req?, j.paused?)))),
    );
    report.set(
        "serve.resume_ms_p50",
        median(&col(&|j| Some(Seen::ms(j.resume_req?, j.resume_day?)))),
    );
    report.set("serve.lagged", seen.iter().map(|j| j.lagged as f64).sum());
    report.set(
        "serve.pool_busy_share",
        busy_ms / 1e3 / (f64::from(p.workers) * window),
    );
    report.set("serve.generator_late_ms_max", max(&s.late_ms));
    // Traced jobs (odd) against untraced ones (even) of the same session.
    let cadence = |parity: usize| {
        let v: Vec<f64> = seen
            .iter()
            .filter(|j| j.idx % 2 == parity && plans[j.idx].action == Action::None)
            .filter(|j| j.days.len() > 1)
            .map(|j| Seen::ms(j.days[0], j.days[j.days.len() - 1]) / (j.days.len() - 1) as f64)
            .collect();
        median(&v)
    };
    report.set("trace.overhead_share", cadence(1) / cadence(0) - 1.0);
    replicas(p, plans, refs, report);
}

/// Rebuild a sample of served jobs' worlds the way the pool does and run
/// them directly, for the layers below the service boundary. A replica
/// whose hash differs from `reference_hash` no longer mirrors the pool;
/// it is reported on stderr and left out.
fn replicas(
    p: &Params,
    plans: &[Planned],
    refs: &[Option<Result<u64, String>>],
    report: &mut Report,
) {
    let (mut generate, mut build, mut new) = (Vec::new(), Vec::new(), Vec::new());
    let (mut msgs, mut cross, mut packets, mut events, mut infects) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut person, mut location, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    let sample = plans
        .iter()
        .enumerate()
        .filter(|(i, _)| matches!(refs[*i], Some(Ok(_))))
        .take(p.replicas);
    for (i, plan) in sample {
        let scenario: Scenario = plan.spec.source.dsl().parse().expect("planned DSL parses");
        let cfg = SimConfig {
            days: plan.days,
            r: plan.r,
            seed: plan.sim_seed,
            initial_infections: 6,
            interventions: InterventionSet::new(scenario.interventions.clone()),
            stop_when_extinct: true,
        };
        let t = Instant::now();
        let pop = Population::generate(&PopulationConfig::small(
            &plan.spec.name,
            plan.pop,
            plan.pop_seed,
        ));
        let t_gen = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let dist = DataDistribution::build(
            &pop,
            Strategy::GraphPartition,
            plan.spec.hints.n_partitions,
            cfg.seed,
        );
        let t_build = t.elapsed().as_secs_f64();
        let choice = match plan.spec.engine {
            EngineSel::Threads => EngineChoice::Threads,
            EngineSel::Vt => EngineChoice::Vt,
            _ => EngineChoice::Seq,
        };
        let t = Instant::now();
        let sim = Simulator::new(
            &dist,
            scenario.ptts.clone(),
            cfg,
            choice.runtime_config(plan.spec.hints.n_pes, 1),
        );
        let t_new = t.elapsed().as_secs_f64();
        let run = sim.run();
        if Some(&Ok(run.curve.hash())) != refs[i].as_ref() {
            eprintln!("perfbench: replica of job {i} differs from the pool's run; skipped");
            continue;
        }
        generate.push(t_gen);
        build.push(t_build);
        new.push(t_new);
        for (d, perf) in run.curve.days.iter().zip(&run.perf) {
            let mut t = perf.person_phase.totals();
            t.merge(&perf.location_phase.totals());
            t.merge(&perf.apply_phase.totals());
            msgs.push(t.sent_total() as f64);
            cross.push((t.sent_intra + t.sent_remote) as f64);
            packets.push(t.network_packets as f64);
            events.push(d.events as f64);
            infects.push(d.infects_sent as f64);
            person.push(perf.person_phase.totals().busy_ns as f64 / 1e6);
            location.push(perf.location_phase.totals().busy_ns as f64 / 1e6);
            apply.push(perf.apply_phase.totals().busy_ns as f64 / 1e6);
        }
    }
    report.set("synthpop.generate_s", median(&generate));
    report.set("distribution.build_s", median(&build));
    report.set("simulator.new_s", median(&new));
    report.set("simulator.person_busy_ms", median(&person));
    report.set("simulator.location_busy_ms", median(&location));
    report.set("simulator.apply_busy_ms", median(&apply));
    report.set("chare-rt.msgs", median(&msgs));
    report.set("chare-rt.msgs_cross_pe", median(&cross));
    report.set("chare-rt.packets", median(&packets));
    report.set("kernel.events", median(&events));
    report.set("kernel.infects", median(&infects));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(dir: &str) -> Params {
        let mut p = Params::new(2, std::env::temp_dir().join(dir));
        p.min_jobs = 12;
        p.rate = 30.0;
        p.pop_range = (200, 400);
        p.day_range = (10, 20);
        p.pause_share = 0.25;
        p.cancel_share = 0.15;
        p.setups = 2;
        p.replicas = 3;
        p
    }

    #[test]
    fn schedule_is_seeded() {
        let p = tiny("perfbench-schedule");
        let a = schedule(&p, 3, 30);
        let b = schedule(&p, 3, 30);
        let c = schedule(&p, 4, 30);
        assert_eq!(
            a.iter().map(|x| x.spec.clone()).collect::<Vec<_>>(),
            b.iter().map(|x| x.spec.clone()).collect::<Vec<_>>()
        );
        assert_ne!(a[0].spec, c[0].spec);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.spec.validate().is_ok()));
    }

    #[test]
    fn served_jobs_match_their_references() {
        let p = tiny(&format!("perfbench-serve-{}", std::process::id()));
        let mut tally = Tally::default();
        let report = run(&p, 7, 0.0, &Tracer::new(true), &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed),
            (12, 0),
            "{:?}",
            tally.notes
        );
        assert!(report.bad_end_to_end().is_empty(), "{report:?}");
    }

    #[test]
    fn wrong_reference_hash_is_a_failed_job() {
        let p = tiny("perfbench-check");
        let plan = schedule(&p, 7, 1).remove(0);
        let now = Instant::now();
        let mut seen = blank(0, 1, now, now);
        seen.days.push(now);
        seen.terminal = Some((
            now,
            Event::Completed {
                job: 1,
                days: 1,
                cumulative: 6,
                curve_hash: 0xabc,
            },
        ));
        let mut tally = Tally::default();
        let action = plan.action;
        check(&mut tally, &plan, &seen, Some(&Ok(0xabd)));
        if action == Action::Cancel {
            // A completed job that was meant to be cancelled fails too.
            assert_eq!(tally.failed, 1);
        } else {
            assert_eq!((tally.attempted, tally.failed), (1, 1), "{:?}", tally.notes);
            assert!(tally.notes[0].contains("!= reference"));
        }
        check(&mut tally, &plan, &seen, Some(&Ok(0xabc)));
        assert_eq!(tally.attempted, 2);
    }
}
