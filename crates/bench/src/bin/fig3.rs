//! Figure 3: the load estimation model.
//!
//! (a) static model — measure the real location DES kernel's per-location
//!     processing time on this host, fit the paper's piecewise-sigmoid
//!     form, and report the mean absolute percentage error (paper: ≈ 5%).
//! (b) dynamic model — regress measured time on the three run-time state
//!     variables (events, Σ interactions, Σ 1/interactions); report R².
//! (c) in-degree (unique visitors) distribution per location, log-binned.
//! (d) static load distribution per location, log-binned.

use bench::{fnum, gen_state, print_table, FIGURE_STATES};
use episim_core::kernel::{simulate_location, InfectivityClasses, KernelParams, KernelScratch};
use episim_core::messages::VisitMsg;
use episim_core::schedule::{DayVisits, VisitSchedule};
use load_model::fit::{fit_multilinear, fit_piecewise, mape, r_squared};
use load_model::{LoadUnits, PiecewiseModel};
use ptts::crng::{CounterRng, Purpose};
use ptts::flu_model;
use std::time::Instant;
use synthpop::{BipartiteGraph, LocationId, LogHistogram, Population};

/// Record a day-0 visit message for every visit of `pop`, seeding a
/// fraction of the population infectious so the kernel's interaction
/// paths execute.
fn day_visits(
    pop: &Population,
    schedule: &VisitSchedule,
    classes: &InfectivityClasses,
    infectious_frac: f64,
) -> DayVisits {
    let ptts = flu_model();
    let sym = ptts.state_by_name("symptomatic").unwrap();
    let start = ptts.start_state();
    let mut visits = DayVisits::for_parts(schedule, 0..1);
    for (i, v) in pop.visits.iter().enumerate() {
        let mut rng = CounterRng::for_entity(7, v.person.0 as u64, 0, Purpose::Synthesis);
        let state = if rng.bernoulli(infectious_frac) {
            sym
        } else {
            start
        };
        let msg = VisitMsg {
            slot: schedule.slot_of_visit(i),
            state,
            sus_scale: 1.0,
        };
        visits.record(classes, &msg);
    }
    visits
}

fn main() {
    println!("== Figure 3: load estimation model ==\n");
    let ptts = flu_model();
    let classes = InfectivityClasses::new(&ptts);
    let pop = gen_state("CA");

    // ---- (a) measure the kernel per location. The kernel only reads the
    // day's records, so each location can be timed repeatedly.
    let schedule = VisitSchedule::unpartitioned(&pop);
    let visits = day_visits(&pop, &schedule, &classes, 0.02);
    let params = KernelParams {
        ptts: &ptts,
        classes: &classes,
        r_eff: 0.0008,
        seed: 3,
        day: 0,
    };
    let mut samples: Vec<(f64, f64)> = Vec::new(); // (events, min-of-5 ns)
    let mut dyn_rows: Vec<Vec<f64>> = Vec::new();
    let mut dyn_ys: Vec<f64> = Vec::new();
    let mut out = Vec::new();
    let mut scratch = KernelScratch::new();
    for rank in visits.ranks() {
        let features = simulate_location(&schedule, &visits, rank, &params, &mut scratch, &mut out);
        // Skip the tiniest locations: timer noise swamps sub-µs kernels.
        if features.events < 2 * 12 {
            continue;
        }
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            out.clear();
            let t0 = Instant::now();
            simulate_location(&schedule, &visits, rank, &params, &mut scratch, &mut out);
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        samples.push((features.events as f64, best));
        dyn_rows.push(vec![
            features.events as f64,
            features.interactions as f64,
            features.sum_reciprocal_interactions,
        ]);
        dyn_ys.push(best);
    }
    println!("measured {} locations (≥12 visits) on CA\n", samples.len());

    let model = fit_piecewise(&samples, 50.0).expect("piecewise fit");
    let pred: Vec<f64> = samples.iter().map(|&(x, _)| model.eval(x)).collect();
    let obs: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
    println!("(a) static model fit  Y = Ya·S(ϕ−X′) + Yb·S(X′−ϕ):");
    println!(
        "    Ya = {} + {}·X    Yb = {} + {}·X    ϕ = {}",
        fnum(model.a1),
        fnum(model.b1),
        fnum(model.a2),
        fnum(model.b2),
        fnum(model.phi)
    );
    println!(
        "    MAPE = {:.1}%   R² = {:.3}   (paper: ≈5% error on average)",
        100.0 * mape(&pred, &obs),
        r_squared(&pred, &obs)
    );
    // Predicted-vs-observed sample rows across the range.
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut rows = Vec::new();
    for q in [0.05, 0.25, 0.5, 0.75, 0.95, 0.999] {
        let idx = ((sorted.len() - 1) as f64 * q) as usize;
        let (x, y) = sorted[idx];
        rows.push(vec![fnum(x), fnum(y), fnum(model.eval(x))]);
    }
    print_table(
        "predicted vs observed (ns)",
        &["events", "observed", "predicted"],
        &rows,
    );

    // ---- (b) dynamic model.
    if let Some(w) = fit_multilinear(&dyn_rows, &dyn_ys) {
        let pred_dyn: Vec<f64> = dyn_rows
            .iter()
            .map(|r| w[0] + w[1] * r[0] + w[2] * r[1] + w[3] * r[2])
            .collect();
        println!("(b) dynamic model  Y = w0 + w1·events + w2·Σint + w3·Σ(1/int):");
        println!(
            "    w = [{}, {}, {}, {}]   R² = {:.3} (static-only R² above)",
            fnum(w[0]),
            fnum(w[1]),
            fnum(w[2]),
            fnum(w[3]),
            r_squared(&pred_dyn, &dyn_ys)
        );
        println!("    (run-time features; used for future dynamic LB, not partitioning)\n");
    }

    // ---- (c) + (d): distributions per state.
    let load_model = PiecewiseModel::paper_constants();
    for code in FIGURE_STATES {
        let pop = gen_state(code);
        let g = BipartiteGraph::build(&pop);
        let mut deg_hist = LogHistogram::new(1);
        for l in 0..g.n_locations() {
            deg_hist.add(g.unique_visitors(&pop, LocationId(l)) as f64);
        }
        let mut load_hist = LogHistogram::new(1);
        let loads =
            episim_core::workload::location_static_loads(&pop, &load_model, LoadUnits::default());
        for &l in &loads {
            load_hist.add(l as f64 / 1000.0); // µs bins
        }
        println!(
            "{}",
            deg_hist.render(&format!("(c) {code} in-degree (unique visitors)"))
        );
        println!(
            "{}",
            load_hist.render(&format!("(d) {code} static load (µs)"))
        );
    }
}
