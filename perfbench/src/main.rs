//! The repository's benchmark: one binary, four workloads.
//!
//! ```sh
//! perfbench --workload <outbreak|outbreak_net|sweep|service> --seed <n> \
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Inputs derive from `--seed` only. Each workload repeats its unit of
//! work until `--seconds` are spent, checks every result against a
//! reference, and prints two lines on stdout: a host record, then the
//! result (`correct`, `attempted`, `failed`, `metrics`). `--trace 0`
//! reports the end-to-end metrics; `--trace 1` the per-layer metrics, and
//! writes the spans to `<out>/trace-<workload>-<seed>.json`. See README.md.

mod alloc;
mod host;
mod outbreak;
mod report;
mod service;
mod stats;
mod sweep;
mod trace;

use episimdemics::chare_rt::worker_target;
use report::{Report, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// SplitMix64 finaliser of `seed` salted with `salt`: independent,
/// reproducible sub-seeds for every input a workload draws.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

pub const WORKLOADS: [&str; 4] = ["outbreak", "outbreak_net", "sweep", "service"];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected seconds >= 0"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn net_engine(cores: u32) -> outbreak::Engine {
    outbreak::Engine::Net {
        procs: 2,
        pes_per_proc: (cores / 2).max(1),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = host::cores();

    // A net-engine worker process: rebuild the world and join the run.
    if let Some(target) = worker_target() {
        let p = outbreak::Params::new(net_engine(cores));
        outbreak::net_worker(&p, args.seed, target);
        return ExitCode::SUCCESS;
    }

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    // (PEs, processes, workers) as used: every count derives from `cores`.
    let (report, shape): (Report, (u32, u32, u32)) = match args.workload.as_str() {
        "outbreak" | "outbreak_net" => {
            let engine = if args.workload == "outbreak" {
                outbreak::Engine::Threads { pes: cores }
            } else {
                // Workers re-execute this binary with the same arguments.
                std::env::set_var("EPISIM_NET_CHILD_ARGS", argv.join(" "));
                net_engine(cores)
            };
            let p = outbreak::Params::new(engine);
            let r = outbreak::run(&p, args.seed, args.seconds, &tracer, &mut tally);
            (r, (engine.pes(), engine.procs(), 1))
        }
        "sweep" => {
            let p = sweep::Params::new(cores);
            let r = sweep::run(&p, args.seed, args.seconds, &tracer, &mut tally);
            (r, (0, 1, cores))
        }
        _ => {
            let dir = args.out.join(format!("serve-{}", std::process::id()));
            let p = service::Params::new(cores, dir);
            let r = service::run(&p, args.seed, args.seconds, &tracer, &mut tally);
            (r, (0, 1, cores))
        }
    };

    for note in tally.notes.iter().take(20) {
        eprintln!("perfbench: FAILED {note}");
    }
    let bad = report.bad_end_to_end();
    if !args.trace && !bad.is_empty() {
        eprintln!("perfbench: end-to-end metrics not measured: {bad:?}");
        return ExitCode::from(3);
    }
    if args.trace {
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let spans = tracer.spans();
        let meta = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("host", host::record_json(&args.workload, args.seed, &[])),
        ];
        match std::fs::write(&path, trace::chrome_json(&spans, &meta)) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        for (name, s) in trace::self_time_by_name(&spans)
            .into_iter()
            .filter(|(_, s)| *s > 1e-3)
        {
            eprintln!("perfbench: self time {s:>10.4} s  {name}");
        }
    }
    let (pes, procs, workers) = shape;
    println!(
        "{}",
        host::record_json(
            &args.workload,
            args.seed,
            &[
                ("pes", f64::from(pes)),
                ("procs", f64::from(procs)),
                ("workers", f64::from(workers)),
                ("seconds", args.seconds),
                ("samples", report.samples as f64),
                (
                    "tail_rule_percentile",
                    stats::tail_percentile(report.samples).unwrap_or(0.0),
                ),
            ],
        )
    );
    println!("{}", report.result_line(args.trace, &tally));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse_args(&argv("--workload sweep --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "sweep");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload sweep --seed 7 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sweep --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload sweep --seed 7 --seconds 1 --trace")).is_err());
    }

    #[test]
    fn sub_seeds_are_distinct_and_reproducible() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
        let mut r = Rng::new(5);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
