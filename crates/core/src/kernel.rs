//! The location DES kernel (§II-B step 3).
//!
//! "Each location constructs a sequential and local DES by converting each
//! visit message into an arrive event and depart event. The DES is
//! executed, computing the interactions between each pair of susceptible
//! and infectious people who are at the location at the same time."
//!
//! People only interact within the same *sublocation* (§III-C), so the
//! sweep runs per sublocation. Exposure is accumulated exactly but in
//! O(E log E) rather than O(pairs): infectivity values are drawn from the
//! finite PTTS state set, so we maintain one cumulative occupancy-time
//! integral per distinct infectivity class; a susceptible's pairwise
//! exposure `Σ_j τ_ij · ln(1 − r·s_i·ι_j)` factors through those class
//! integrals. Infector attribution (rare) falls back to a pairwise pass.

use crate::messages::{InfectMsg, VisitMsg};
use ptts::crng::{CounterRng, Purpose};
use ptts::transmission::select_infector;
use ptts::Ptts;

/// Reusable working memory for [`simulate_location_day`]. One instance per
/// owner (LocationManager chare or sequential driver) serves every location
/// and every day: all buffers grow to the high-water mark once and are then
/// recycled, so the steady-state DES sweep performs no heap allocation.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Event list: `(key, visit index)` with `key = t << 1 | is_arrive`,
    /// so departs order before arrives at equal times.
    events: Vec<(u32, u32)>,
    /// Counting-sort output buffer (same layout as `events`).
    sorted: Vec<(u32, u32)>,
    /// Counting-sort bucket offsets, indexed by event key.
    buckets: Vec<u32>,
    /// ∫ count_c dt per infectivity class.
    cit: Vec<f64>,
    /// Infectious currently present, per class.
    present: Vec<u32>,
    /// Per-visit susceptible sweep state for the current sublocation.
    sus_meta: Vec<SusMeta>,
    /// Snapshot arena: `cit` captured at each susceptible arrival, stored
    /// flat with stride `classes.n()` (replaces a per-arrival `Vec` clone).
    snap_arena: Vec<f64>,
    /// Infector-attribution candidates `(visit index, p_j)`.
    cands: Vec<(u32, f64)>,
    /// Candidate probabilities, parallel to `cands`.
    probs: Vec<f64>,
    /// Memo of `(-q_c).ln_1p()` per class for the last `(r_eff, s_i)`
    /// pair; susceptibility is monomorphic in practice, so the transcend
    /// calls amortise to one rebuild per kernel invocation.
    lnq: Vec<f64>,
    /// The `(r_eff, s_i)` key the `lnq` memo was built for.
    lnq_key: (f64, f64),
}

impl KernelScratch {
    /// Fresh scratch; buffers are grown lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-visit sweep state of a susceptible currently inside the sublocation.
#[derive(Debug, Clone, Copy)]
struct SusMeta {
    /// Offset of the arrival `cit` snapshot in `snap_arena`
    /// (`u32::MAX` = not a tracked susceptible).
    snap_off: u32,
    /// Infectious present at the moment of arrival.
    present_at_arrive: u32,
    /// Cumulative infectious arrivals seen before this arrival.
    arrivals_at_arrive: u64,
}

impl SusMeta {
    const NONE: SusMeta = SusMeta {
        snap_off: u32::MAX,
        present_at_arrive: 0,
        arrivals_at_arrive: 0,
    };
}

/// Features the dynamic load model consumes (Figure 3b), accumulated per
/// location per day.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LocationDayFeatures {
    /// Arrive + depart events processed (2 × visits).
    pub events: u64,
    /// Total susceptible×infectious interaction pairs.
    pub interactions: u64,
    /// Σ 1/interactions over occupants with ≥ 1 interaction.
    pub sum_reciprocal_interactions: f64,
}

/// Map PTTS states to dense infectivity classes.
#[derive(Debug, Clone)]
pub struct InfectivityClasses {
    /// Class index per state (`u8::MAX` = not infectious).
    class_of_state: Vec<u8>,
    /// Infectivity per class.
    iota: Vec<f64>,
}

impl InfectivityClasses {
    /// Build from a PTTS.
    pub fn new(ptts: &Ptts) -> Self {
        let mut class_of_state = vec![u8::MAX; ptts.n_states()];
        let mut iota = Vec::new();
        for (s, slot) in class_of_state.iter_mut().enumerate() {
            let inf = ptts.infectivity(ptts::model::StateId(s as u16));
            if inf > 0.0 {
                let class = iota
                    .iter()
                    .position(|&x: &f64| (x - inf).abs() < 1e-12)
                    .unwrap_or_else(|| {
                        iota.push(inf);
                        iota.len() - 1
                    });
                *slot = class as u8;
            }
        }
        InfectivityClasses {
            class_of_state,
            iota,
        }
    }

    /// Number of classes.
    pub fn n(&self) -> usize {
        self.iota.len()
    }

    #[inline]
    fn class(&self, state: ptts::model::StateId) -> Option<usize> {
        let c = self.class_of_state[state.0 as usize];
        (c != u8::MAX).then_some(c as usize)
    }
}

/// Run one location's DES for one day over a flat visit slice.
///
/// `visits` is the day's buffer (any order — it is sorted internally, so
/// results are independent of message arrival order). Returns the infect
/// messages and the load-model features. `r_eff` is the effective
/// per-minute transmissibility. `scratch` supplies all working memory; a
/// reused instance makes the sweep allocation-free in steady state.
#[allow(clippy::too_many_arguments)]
#[simlint_macros::hot_path]
pub fn simulate_location_day(
    visits: &mut [VisitMsg],
    ptts: &Ptts,
    classes: &InfectivityClasses,
    r_eff: f64,
    seed: u64,
    day: u32,
    scratch: &mut KernelScratch,
    out: &mut Vec<InfectMsg>,
) -> LocationDayFeatures {
    let mut features = LocationDayFeatures {
        events: 2 * visits.len() as u64,
        ..Default::default()
    };
    if visits.is_empty() {
        return features;
    }
    // Fast path: with no infectious visitor the sweep provably produces
    // no interactions and no infections — `features` already holds its
    // final value. One O(n) scan replaces the sort + event sweep, and
    // over a whole epidemic most location-days take this exit.
    if !visits.iter().any(|v| classes.class(v.state).is_some()) {
        return features;
    }
    // Deterministic order: by sublocation, then start, then person — one
    // u64 key (16+16+32 bits) so the sort compares single integers.
    visits.sort_unstable_by_key(visit_key);

    let mut lo = 0usize;
    while lo < visits.len() {
        let subloc = visits[lo].sublocation;
        let mut hi = lo + 1;
        while hi < visits.len() && visits[hi].sublocation == subloc {
            hi += 1;
        }
        let range = &visits[lo..hi];
        if !range.iter().any(|v| classes.class(v.state).is_some()) {
            lo = hi;
            continue;
        }
        simulate_sublocation(
            range,
            ptts,
            classes,
            r_eff,
            seed,
            day,
            scratch,
            out,
            &mut features,
        );
        lo = hi;
    }
    features
}

#[inline]
fn visit_key(v: &VisitMsg) -> u64 {
    ((v.sublocation as u64) << 48) | ((v.start_min as u64) << 32) | v.person as u64
}

/// Sweep events of one sublocation (visits already in canonical order).
#[allow(clippy::too_many_arguments)]
#[simlint_macros::hot_path]
fn simulate_sublocation(
    visits: &[VisitMsg],
    ptts: &Ptts,
    classes: &InfectivityClasses,
    r_eff: f64,
    seed: u64,
    day: u32,
    scratch: &mut KernelScratch,
    out: &mut Vec<InfectMsg>,
    features: &mut LocationDayFeatures,
) {
    let ncls = classes.n();
    let KernelScratch {
        events,
        sorted,
        buckets,
        cit,
        present,
        sus_meta,
        snap_arena,
        cands,
        probs,
        lnq,
        lnq_key,
    } = scratch;

    // Event list: key = t << 1 | is_arrive, so at equal times departs sort
    // before arrives and zero-overlap pairs don't interact. Pushed in visit
    // order, which is the tie-break the sorts below preserve.
    events.clear();
    let mut max_key = 0u32;
    let mut total_inf_arrivals = 0u64;
    for (i, v) in visits.iter().enumerate() {
        if v.end_min <= v.start_min {
            continue;
        }
        if classes.class(v.state).is_some() {
            total_inf_arrivals += 1;
        }
        let arrive = ((v.start_min as u32) << 1) | 1;
        let depart = (v.end_min as u32) << 1;
        events.push((arrive, i as u32)); // simlint: allow(R6) -- reused scratch: events reaches steady-state capacity after the first day; allocs/day gated by BENCH_hotpath
        events.push((depart, i as u32)); // simlint: allow(R6) -- reused scratch: events reaches steady-state capacity after the first day; allocs/day gated by BENCH_hotpath
        max_key = max_key.max(depart).max(arrive);
    }
    // Order events by key with push-order tie-break. Counting sort is O(n +
    // buckets) and branch-free, but zeroing the bucket array dominates for
    // sparse sublocations — fall back to a comparison sort on the identical
    // total order (key, then push index = visit index) when buckets would
    // outnumber events 4:1.
    let nbuckets = max_key as usize + 1;
    let ordered: &[(u32, u32)] = if events.is_empty() {
        events
    } else if nbuckets <= 4 * events.len() {
        buckets.clear();
        buckets.resize(nbuckets, 0); // simlint: allow(R6) -- reused scratch: counting-sort buckets sized to the day's max key, capacity reused across invocations
        for &(k, _) in events.iter() {
            buckets[k as usize] += 1;
        }
        let mut acc = 0u32;
        for b in buckets.iter_mut() {
            let c = *b;
            *b = acc;
            acc += c;
        }
        sorted.clear();
        sorted.resize(events.len(), (0, 0)); // simlint: allow(R6) -- reused scratch: sorted buffer tracks events.len(), capacity reused across invocations
        for &(k, vi) in events.iter() {
            let slot = &mut buckets[k as usize];
            sorted[*slot as usize] = (k, vi);
            *slot += 1;
        }
        sorted
    } else {
        // Arrive and depart keys of one visit differ, and within one key
        // class visit indices are unique, so (key, vi) reproduces the
        // stable counting order exactly.
        events.sort_unstable_by_key(|&(k, vi)| ((k as u64) << 32) | vi as u64);
        events
    };

    // Sweep state.
    cit.clear();
    cit.resize(ncls, 0.0); // simlint: allow(R6) -- reused scratch: per-class intensity table, ncls is fixed for a run
    present.clear();
    present.resize(ncls, 0); // simlint: allow(R6) -- reused scratch: per-class presence counters, ncls is fixed for a run
    sus_meta.clear();
    sus_meta.resize(visits.len(), SusMeta::NONE); // simlint: allow(R6) -- reused scratch: per-visit metadata tracks visits.len(), capacity reused across invocations
    snap_arena.clear();
    let mut arrivals = 0u64; // cumulative infectious arrivals (all classes)
    let mut last_t = 0u16;

    for &(key, vi) in ordered {
        let t = (key >> 1) as u16;
        let is_arrive = key & 1 == 1;
        // Advance integrals to t.
        let dt = (t - last_t) as f64;
        if dt > 0.0 {
            for (citc, &pres) in cit.iter_mut().zip(present.iter()) {
                *citc += pres as f64 * dt;
            }
            last_t = t;
        }
        let v = &visits[vi as usize];
        let v_class = classes.class(v.state);
        if is_arrive {
            // Skip the snapshot when no infectious is present and none will
            // ever arrive again: encounters and every class integral delta
            // are provably zero, so the departure-side resolve is a no-op.
            if ptts.is_susceptible(v.state)
                && v.sus_scale > 0.0
                && !(arrivals == total_inf_arrivals && present.iter().all(|&p| p == 0))
            {
                sus_meta[vi as usize] = SusMeta {
                    snap_off: snap_arena.len() as u32,
                    present_at_arrive: present.iter().sum(),
                    arrivals_at_arrive: arrivals,
                };
                snap_arena.extend_from_slice(cit); // simlint: allow(R6) -- reused scratch: snapshot arena grows to the worst sublocation-day once, then recycles
            }
            if let Some(c) = v_class {
                present[c] += 1;
                arrivals += 1;
            }
        } else {
            if let Some(c) = v_class {
                present[c] -= 1;
            }
            let meta = std::mem::replace(&mut sus_meta[vi as usize], SusMeta::NONE);
            if meta.snap_off != u32::MAX {
                let off = meta.snap_off as usize;
                resolve_susceptible(
                    v,
                    &meta,
                    &snap_arena[off..off + ncls],
                    cit,
                    arrivals,
                    visits,
                    ptts,
                    classes,
                    r_eff,
                    seed,
                    day,
                    cands,
                    probs,
                    lnq,
                    lnq_key,
                    out,
                    features,
                );
            }
        }
    }
}

/// At a susceptible's departure: compute exposure, draw infection, and if
/// infected, attribute an infector. `cit_at_arrive` is the arena slice
/// captured at arrival; `cands`/`probs` are reused scratch vectors.
#[allow(clippy::too_many_arguments)]
#[simlint_macros::hot_path]
fn resolve_susceptible(
    v: &VisitMsg,
    meta: &SusMeta,
    cit_at_arrive: &[f64],
    cit: &[f64],
    arrivals_now: u64,
    visits: &[VisitMsg],
    ptts: &Ptts,
    classes: &InfectivityClasses,
    r_eff: f64,
    seed: u64,
    day: u32,
    cands: &mut Vec<(u32, f64)>,
    probs: &mut Vec<f64>,
    lnq: &mut Vec<f64>,
    lnq_key: &mut (f64, f64),
    out: &mut Vec<InfectMsg>,
    features: &mut LocationDayFeatures,
) {
    let s_i = ptts.susceptibility(v.state) * v.sus_scale as f64;
    // Interaction count: infectious present at arrival + infectious
    // arrivals during the stay (exact count of overlapping intervals,
    // minus self if this visit is also infectious).
    let mut encounters = meta.present_at_arrive as u64 + (arrivals_now - meta.arrivals_at_arrive);
    let self_class = classes.class(v.state);
    if self_class.is_some() {
        encounters = encounters.saturating_sub(1);
    }
    features.interactions += encounters;
    if encounters > 0 {
        features.sum_reciprocal_interactions += 1.0 / encounters as f64;
    }

    // Exposure: log-escape via class integrals. The `(-q).ln_1p()` factors
    // depend only on `(r_eff, s_i, class)`; susceptibility is monomorphic
    // in practice, so the memo reduces the transcendental calls to one
    // rebuild per kernel invocation. `lnq[c]` is exactly the value the
    // un-memoised expression produces, so results are bit-identical.
    if lnq.len() != classes.n() || *lnq_key != (r_eff, s_i) {
        lnq.clear();
        // simlint: allow(R6) -- reused scratch: memoised log-q table, rebuilt only when (r_eff, s_i) changes
        lnq.extend(classes.iota.iter().map(|&iota| {
            let q = (r_eff * s_i * iota).clamp(0.0, 1.0 - 1e-12);
            if q > 0.0 {
                (-q).ln_1p()
            } else {
                0.0
            }
        }));
        *lnq_key = (r_eff, s_i);
    }
    let mut log_escape = 0.0f64;
    #[allow(clippy::needless_range_loop)] // c indexes three parallel arrays
    for c in 0..classes.n() {
        let mut tau = cit[c] - cit_at_arrive[c];
        if Some(c) == self_class {
            // Exclude self-exposure.
            tau -= (v.end_min - v.start_min) as f64;
        }
        if tau <= 0.0 {
            continue;
        }
        // Adding `tau * 0.0` for a zero-q class leaves the sum unchanged,
        // matching the original `if q > 0.0` guard exactly.
        log_escape += tau * lnq[c];
    }
    if log_escape == 0.0 {
        // exp(0) = 1 exactly, so p would be 0 — skip the exp.
        return;
    }
    let p = 1.0 - log_escape.exp();
    if p <= 0.0 {
        return;
    }
    let mut rng = CounterRng::from_key(&[
        seed,
        v.person as u64,
        day as u64,
        Purpose::Infection as u64,
        v.start_min as u64,
    ]);
    if !rng.bernoulli(p) {
        return;
    }
    // Attribute an infector: pairwise pass over overlapping infectious
    // visits in this sublocation (visits slice is the sublocation group).
    cands.clear();
    for (j, w) in visits.iter().enumerate() {
        if w.person == v.person && w.start_min == v.start_min {
            continue;
        }
        let Some(c) = classes.class(w.state) else {
            continue;
        };
        let overlap =
            (v.end_min.min(w.end_min) as i32 - v.start_min.max(w.start_min) as i32).max(0) as f64;
        if overlap > 0.0 {
            let q = (r_eff * s_i * classes.iota[c]).clamp(0.0, 1.0 - 1e-12);
            let p_j = 1.0 - (overlap * (-q).ln_1p()).exp();
            cands.push((j as u32, p_j)); // simlint: allow(R6) -- reused scratch: candidate list reaches the worst overlap count once, then recycles
        }
    }
    let infector = if cands.is_empty() {
        u32::MAX
    } else {
        probs.clear();
        probs.extend(cands.iter().map(|&(_, p)| p)); // simlint: allow(R6) -- reused scratch: probability buffer mirrors cands, capacity reused
        match select_infector(probs, rng.uniform_f64()) {
            Some(i) => visits[cands[i].0 as usize].person,
            None => u32::MAX,
        }
    };
    // simlint: allow(R6) -- reused scratch: output queue drained by the caller each step, capacity reused
    out.push(InfectMsg {
        person: v.person,
        time_min: v.start_min,
        infector,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptts::flu_model;
    use ptts::model::StateId;

    fn visit(person: u32, state: StateId, start: u16, end: u16, subloc: u16) -> VisitMsg {
        VisitMsg {
            person,
            location: 0,
            sublocation: subloc,
            start_min: start,
            end_min: end,
            state,
            sus_scale: 1.0,
        }
    }

    fn run(visits: &mut [VisitMsg], r: f64) -> (Vec<InfectMsg>, LocationDayFeatures) {
        let ptts = flu_model();
        let classes = InfectivityClasses::new(&ptts);
        let mut out = Vec::new();
        let mut scratch = KernelScratch::new();
        let f = simulate_location_day(visits, &ptts, &classes, r, 42, 0, &mut scratch, &mut out);
        (out, f)
    }

    fn sus(ptts: &Ptts) -> StateId {
        ptts.state_by_name("susceptible").unwrap()
    }
    fn sym(ptts: &Ptts) -> StateId {
        ptts.state_by_name("symptomatic").unwrap()
    }

    #[test]
    fn classes_built_from_flu() {
        let ptts = flu_model();
        let c = InfectivityClasses::new(&ptts);
        // incubating 0.25, symptomatic 1.0, asymptomatic 0.5.
        assert_eq!(c.n(), 3);
    }

    #[test]
    fn empty_location_no_events() {
        let (out, f) = run(&mut Vec::new(), 0.01);
        assert!(out.is_empty());
        assert_eq!(f.events, 0);
    }

    #[test]
    fn no_transmission_without_infectious() {
        let p = flu_model();
        let mut vs = vec![visit(1, sus(&p), 0, 100, 0), visit(2, sus(&p), 50, 150, 0)];
        let (out, f) = run(&mut vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.events, 4);
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn certain_transmission_with_r_one() {
        let p = flu_model();
        let mut vs = vec![visit(1, sus(&p), 0, 600, 0), visit(2, sym(&p), 0, 600, 0)];
        let (out, f) = run(&mut vs, 1.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].person, 1);
        assert_eq!(out[0].infector, 2);
        assert_eq!(f.interactions, 1);
    }

    #[test]
    fn no_interaction_across_sublocations() {
        let p = flu_model();
        let mut vs = vec![
            visit(1, sus(&p), 0, 600, 0),
            visit(2, sym(&p), 0, 600, 1), // different room
        ];
        let (out, f) = run(&mut vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn no_interaction_without_time_overlap() {
        let p = flu_model();
        let mut vs = vec![
            visit(1, sus(&p), 0, 100, 0),
            visit(2, sym(&p), 100, 400, 0), // back-to-back, zero overlap
        ];
        let (out, f) = run(&mut vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn interaction_counts_are_pairwise_exact() {
        let p = flu_model();
        // Two infectious overlap one susceptible; one infectious arrives
        // during the stay, one is present beforehand.
        let mut vs = vec![
            visit(1, sus(&p), 100, 300, 0),
            visit(2, sym(&p), 0, 200, 0),   // present at arrival
            visit(3, sym(&p), 150, 400, 0), // arrives during stay
            visit(4, sym(&p), 350, 500, 0), // after departure — no overlap
        ];
        let (_, f) = run(&mut vs, 0.0001);
        assert_eq!(f.interactions, 2);
        assert!((f.sum_reciprocal_interactions - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_matches_closed_form() {
        // Single pair, moderate r: empirical infection rate over many
        // persons ≈ 1 − (1−r·s·ι)^τ.
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let r = 0.002;
        let tau = 120u16;
        let n = 4000u32;
        let mut infected = 0;
        for person in 0..n {
            let mut vs = vec![
                visit(person, sus(&p), 0, tau, 0),
                visit(1_000_000, sym(&p), 0, tau, 0),
            ];
            let mut out = Vec::new();
            let mut scratch = KernelScratch::new();
            simulate_location_day(&mut vs, &p, &classes, r, 7, 3, &mut scratch, &mut out);
            infected += out.len();
        }
        let expected = 1.0 - (1.0f64 - r).powf(tau as f64);
        let got = infected as f64 / n as f64;
        assert!(
            (got - expected).abs() < 0.02,
            "empirical {got} vs closed form {expected}"
        );
    }

    #[test]
    fn exposure_independent_of_visit_order() {
        let p = flu_model();
        let mut a = vec![
            visit(1, sus(&p), 0, 300, 0),
            visit(2, sym(&p), 100, 200, 0),
            visit(3, sym(&p), 50, 250, 0),
        ];
        let mut b = a.clone();
        b.reverse();
        let (out_a, fa) = run(&mut a, 0.01);
        let (out_b, fb) = run(&mut b, 0.01);
        assert_eq!(out_a, out_b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn vaccinated_scale_reduces_probability() {
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let count = |scale: f32| {
            let mut infected = 0;
            for person in 0..3000u32 {
                let mut vs = vec![
                    VisitMsg {
                        sus_scale: scale,
                        ..visit(person, sus(&p), 0, 200, 0)
                    },
                    visit(9_999_999, sym(&p), 0, 200, 0),
                ];
                let mut out = Vec::new();
                let mut scratch = KernelScratch::new();
                simulate_location_day(&mut vs, &p, &classes, 0.003, 11, 1, &mut scratch, &mut out);
                infected += out.len();
            }
            infected
        };
        let unvaxed = count(1.0);
        let vaxed = count(0.2);
        assert!(
            (vaxed as f64) < 0.55 * unvaxed as f64,
            "vaxed {vaxed} vs unvaxed {unvaxed}"
        );
        assert_eq!(count(0.0), 0, "perfect vaccine blocks everything");
    }

    #[test]
    fn multiple_infectious_raise_risk() {
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let count = |n_inf: u32| {
            let mut infected = 0;
            for person in 0..3000u32 {
                let mut vs = vec![visit(person, sus(&p), 0, 100, 0)];
                for j in 0..n_inf {
                    vs.push(visit(1_000_000 + j, sym(&p), 0, 100, 0));
                }
                let mut out = Vec::new();
                let mut scratch = KernelScratch::new();
                simulate_location_day(&mut vs, &p, &classes, 0.002, 13, 2, &mut scratch, &mut out);
                infected += out.len();
            }
            infected
        };
        let one = count(1);
        let four = count(4);
        assert!(four > one, "4 infectious {four} vs 1 infectious {one}");
    }

    #[test]
    fn infector_attribution_prefers_longer_overlap() {
        let p = flu_model();
        let classes = InfectivityClasses::new(&p);
        let mut by_infector = std::collections::BTreeMap::new();
        for person in 0..4000u32 {
            let mut vs = vec![
                visit(person, sus(&p), 0, 400, 0),
                visit(77, sym(&p), 0, 400, 0),   // full overlap
                visit(88, sym(&p), 380, 400, 0), // 20 minutes
            ];
            let mut out = Vec::new();
            let mut scratch = KernelScratch::new();
            simulate_location_day(&mut vs, &p, &classes, 0.01, 17, 5, &mut scratch, &mut out);
            for i in out {
                *by_infector.entry(i.infector).or_insert(0u32) += 1;
            }
        }
        let c77 = by_infector.get(&77).copied().unwrap_or(0);
        let c88 = by_infector.get(&88).copied().unwrap_or(0);
        assert!(c77 > 10 * c88.max(1), "77:{c77} 88:{c88}");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = flu_model();
        let mk = || {
            vec![
                visit(1, sus(&p), 0, 300, 0),
                visit(2, sym(&p), 0, 300, 0),
                visit(3, sus(&p), 100, 250, 0),
                visit(4, sym(&p), 120, 260, 0),
            ]
        };
        let (a, _) = run(&mut mk(), 0.004);
        let (b, _) = run(&mut mk(), 0.004);
        assert_eq!(a, b);
    }
}
