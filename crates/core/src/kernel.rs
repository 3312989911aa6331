//! The location DES kernel (§II-B step 3).
//!
//! "Each location constructs a sequential and local DES by converting each
//! visit message into an arrive event and depart event. The DES is
//! executed, computing the interactions between each pair of susceptible
//! and infectious people who are at the location at the same time."
//!
//! People only interact within the same *sublocation* (§III-C), so the
//! sweep runs per sublocation group of the static [`VisitSchedule`], and
//! only over groups an infectious person visits today. The event order
//! needs no sort: arrivals are the group's slots in canonical order and
//! departures its precomputed `(end, slot)` order, both filtered by
//! today's presence and merged with departures first at equal times.
//! Exposure is accumulated exactly but in O(E) per group rather than
//! O(pairs): infectivity values are drawn from the finite PTTS state set,
//! so we maintain one cumulative occupancy-time integral per distinct
//! infectivity class; a susceptible's pairwise exposure
//! `Σ_j τ_ij · ln(1 − r·s_i·ι_j)` factors through those class integrals.
//! Infector attribution (rare) falls back to a pairwise pass.

use crate::messages::InfectMsg;
use crate::schedule::{DayVisits, VisitSchedule};
use ptts::crng::{CounterRng, Purpose};
use ptts::model::StateId;
use ptts::transmission::select_infector;
use ptts::Ptts;

/// Reusable working memory for [`simulate_location`]. One instance per
/// owner (LocationManager chare or sequential driver) serves every location
/// and every day: all buffers grow to the high-water mark once and are then
/// recycled, so the steady-state DES sweep performs no heap allocation.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Today's staying visits of the current group, in arrival (slot)
    /// order.
    occupants: Vec<Occupant>,
    /// Per slot of the current group: its index in `occupants`
    /// (`u32::MAX` = absent or zero-length today).
    occupant_of_slot: Vec<u32>,
    /// ∫ count_c dt per infectivity class.
    cit: Vec<f64>,
    /// Infectious currently present, per class.
    present: Vec<u32>,
    /// Snapshot arena: `cit` captured at each susceptible arrival, stored
    /// flat with stride `classes.n()` (replaces a per-arrival `Vec` clone).
    snap_arena: Vec<f64>,
    /// Infector-attribution candidates `(person, p_j)`.
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
            let inf = ptts.infectivity(StateId(s as u16));
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
    fn class(&self, state: StateId) -> Option<usize> {
        let c = self.class_of_state[state.0 as usize];
        (c != u8::MAX).then_some(c as usize)
    }

    /// Whether a visitor in `state` makes its sublocation hot.
    #[inline]
    pub fn is_infectious(&self, state: StateId) -> bool {
        self.class_of_state[state.0 as usize] != u8::MAX
    }
}

/// Everything the kernel reads besides the visits: the disease model, its
/// infectivity classes, the effective per-minute transmissibility
/// `r_eff`, and the `(seed, day)` that key the infection draws.
#[derive(Debug, Clone, Copy)]
pub struct KernelParams<'a> {
    /// The disease model.
    pub ptts: &'a Ptts,
    /// Its infectivity classes.
    pub classes: &'a InfectivityClasses,
    /// Effective transmissibility `r × r_scale`.
    pub r_eff: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Simulation day.
    pub day: u32,
}

/// One visit present today, as the sweep sees it.
#[derive(Debug, Clone, Copy)]
struct Occupant {
    person: u32,
    start_min: u16,
    end_min: u16,
    state: StateId,
    sus_scale: f32,
    /// Sweep state while this visit is inside, if it is a tracked
    /// susceptible.
    meta: SusMeta,
}

/// Run the DES of location rank `rank` over today's received visits.
///
/// The only kernel entry: LocationManagers of every engine and the
/// plain-loop oracle reach it through [`DayVisits::compute`]. `events`
/// counts every present visit twice; only hot groups are swept, in
/// ascending order, so the features and the infect stream equal those of
/// a sweep over every present visit. Infect messages are appended to
/// `out`; `scratch` supplies all working memory, so a reused instance makes
/// the sweep allocation-free in steady state.
#[simlint_macros::hot_path]
pub fn simulate_location(
    sched: &VisitSchedule,
    visits: &DayVisits,
    rank: usize,
    params: &KernelParams<'_>,
    scratch: &mut KernelScratch,
    out: &mut Vec<InfectMsg>,
) -> LocationDayFeatures {
    let mut features = LocationDayFeatures::default();
    for g in sched.groups_of_rank(rank) {
        features.events += 2 * visits.present_in(g) as u64;
        if visits.is_hot(g) {
            simulate_sublocation(sched, visits, g, params, scratch, out, &mut features);
        }
    }
    features
}

/// Sweep the events of one hot group: arrivals in slot order, departures
/// in the static `(end, slot)` order, absent and zero-length visits
/// skipped, departures first at equal times (zero-overlap pairs do not
/// interact).
#[simlint_macros::hot_path]
fn simulate_sublocation(
    sched: &VisitSchedule,
    visits: &DayVisits,
    g: usize,
    params: &KernelParams<'_>,
    scratch: &mut KernelScratch,
    out: &mut Vec<InfectMsg>,
    features: &mut LocationDayFeatures,
) {
    let KernelParams { ptts, classes, .. } = *params;
    let ncls = classes.n();
    let slots = sched.slots_of_group(g);
    let KernelScratch {
        occupants,
        occupant_of_slot,
        cit,
        present,
        snap_arena,
        cands,
        probs,
        lnq,
        lnq_key,
    } = scratch;

    // Today's staying visits, read once; zero-length visits never meet
    // anyone and are left out.
    occupants.clear();
    occupant_of_slot.clear();
    let mut total_inf_arrivals = 0u64;
    for slot in slots.clone() {
        let (person, start_min, end_min) = sched.visit(slot);
        let index = match visits.get(slot) {
            Some((state, sus_scale)) if end_min > start_min => {
                let v = Occupant {
                    person,
                    start_min,
                    end_min,
                    state,
                    sus_scale,
                    meta: SusMeta::NONE,
                };
                total_inf_arrivals += classes.is_infectious(v.state) as u64;
                occupants.push(v); // simlint: allow(R6) -- reused scratch: tracks the group size, capacity reused across invocations
                occupants.len() as u32 - 1
            }
            _ => u32::MAX,
        };
        occupant_of_slot.push(index); // simlint: allow(R6) -- reused scratch: tracks the group size, capacity reused across invocations
    }

    // Sweep state.
    cit.clear();
    cit.resize(ncls, 0.0); // simlint: allow(R6) -- reused scratch: per-class intensity table, ncls is fixed for a run
    present.clear();
    present.resize(ncls, 0); // simlint: allow(R6) -- reused scratch: per-class presence counters, ncls is fixed for a run
    snap_arena.clear();
    let mut arrivals = 0u64; // cumulative infectious arrivals (all classes)
    let mut last_t = 0u16;

    // Arrivals in slot order, departures in the static (end, slot) order;
    // at equal times departures go first (zero-overlap pairs do not meet).
    let mut next_arrival = 0usize;
    let mut depart_stream = sched.departures_of_group(g).iter().filter_map(|&slot| {
        let i = occupant_of_slot[slot as usize - slots.start];
        (i != u32::MAX).then_some(i as usize)
    });
    let mut departure = depart_stream.next();
    loop {
        let (vi, is_arrive) = match departure {
            Some(d)
                if next_arrival == occupants.len()
                    || occupants[d].end_min <= occupants[next_arrival].start_min =>
            {
                departure = depart_stream.next();
                (d, false)
            }
            Some(_) => {
                next_arrival += 1;
                (next_arrival - 1, true)
            }
            None => break,
        };
        let v = occupants[vi];
        let t = if is_arrive { v.start_min } else { v.end_min };
        // Advance integrals to t.
        let dt = (t - last_t) as f64;
        if dt > 0.0 {
            for (citc, &pres) in cit.iter_mut().zip(present.iter()) {
                *citc += pres as f64 * dt;
            }
            last_t = t;
        }
        let v_class = classes.class(v.state);
        if is_arrive {
            // Skip the snapshot when no infectious is present and none will
            // ever arrive again: encounters and every class integral delta
            // are provably zero, so the departure-side resolve is a no-op.
            if ptts.is_susceptible(v.state)
                && v.sus_scale > 0.0
                && !(arrivals == total_inf_arrivals && present.iter().all(|&p| p == 0))
            {
                occupants[vi].meta = SusMeta {
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
            if v.meta.snap_off != u32::MAX {
                let off = v.meta.snap_off as usize;
                resolve_susceptible(
                    &v,
                    &snap_arena[off..off + ncls],
                    cit,
                    arrivals,
                    occupants,
                    params,
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
    v: &Occupant,
    cit_at_arrive: &[f64],
    cit: &[f64],
    arrivals_now: u64,
    occupants: &[Occupant],
    params: &KernelParams<'_>,
    cands: &mut Vec<(u32, f64)>,
    probs: &mut Vec<f64>,
    lnq: &mut Vec<f64>,
    lnq_key: &mut (f64, f64),
    out: &mut Vec<InfectMsg>,
    features: &mut LocationDayFeatures,
) {
    let KernelParams {
        ptts,
        classes,
        r_eff,
        seed,
        day,
    } = *params;
    let s_i = ptts.susceptibility(v.state) * v.sus_scale as f64;
    // Interaction count: infectious present at arrival + infectious
    // arrivals during the stay (exact count of overlapping intervals,
    // minus self if this visit is also infectious).
    let mut encounters =
        v.meta.present_at_arrive as u64 + (arrivals_now - v.meta.arrivals_at_arrive);
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
    // Attribute an infector: pairwise pass over today's overlapping
    // infectious visits in this group, in canonical order (zero-length
    // visits overlap nothing, so the staying occupants suffice).
    cands.clear();
    for w in occupants {
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
            cands.push((w.person, p_j)); // simlint: allow(R6) -- reused scratch: candidate list reaches the worst overlap count once, then recycles
        }
    }
    let infector = if cands.is_empty() {
        u32::MAX
    } else {
        probs.clear();
        probs.extend(cands.iter().map(|&(_, p)| p)); // simlint: allow(R6) -- reused scratch: probability buffer mirrors cands, capacity reused
        match select_infector(probs, rng.uniform_f64()) {
            Some(i) => cands[i].0,
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
    use crate::messages::VisitMsg;
    use ptts::flu_model;
    use ptts::model::StateId;
    use synthpop::{
        Location, LocationId, LocationKind, PersonId, Population, SublocationId, Visit,
    };

    /// One visit of a one-location test day, with today's state.
    #[derive(Debug, Clone, Copy)]
    struct V {
        person: u32,
        state: StateId,
        start: u16,
        end: u16,
        subloc: u16,
        sus_scale: f32,
    }

    fn visit(person: u32, state: StateId, start: u16, end: u16, subloc: u16) -> V {
        V {
            person,
            state,
            start,
            end,
            subloc,
            sus_scale: 1.0,
        }
    }

    /// Sweep location 0 of a schedule laid out over `visits` alone. Only
    /// the visit list matters to the schedule, so the population carries
    /// no person records; visits are made person-major, as generated
    /// populations are.
    fn run_with(
        visits: &[V],
        r: f64,
        seed: u64,
        day: u32,
    ) -> (Vec<InfectMsg>, LocationDayFeatures) {
        let mut sorted = visits.to_vec();
        sorted.sort_by_key(|v| v.person);
        let pop = Population {
            code: "K".into(),
            seed: 0,
            people: Vec::new(),
            locations: vec![Location {
                kind: LocationKind::Work,
                n_sublocations: 4,
                weight: 1.0,
            }],
            visits: sorted
                .iter()
                .map(|v| Visit {
                    person: PersonId(v.person),
                    location: LocationId(0),
                    sublocation: SublocationId(v.subloc),
                    start_min: v.start,
                    duration_min: v.end - v.start,
                })
                .collect(),
            person_offsets: vec![0],
        };
        let ptts = flu_model();
        let classes = InfectivityClasses::new(&ptts);
        let schedule = VisitSchedule::unpartitioned(&pop);
        let mut day_visits = DayVisits::for_parts(&schedule, 0..1);
        for (i, v) in sorted.iter().enumerate() {
            let msg = VisitMsg {
                slot: schedule.slot_of_visit(i),
                state: v.state,
                sus_scale: v.sus_scale,
            };
            day_visits.record(&classes, &msg);
        }
        let params = KernelParams {
            ptts: &ptts,
            classes: &classes,
            r_eff: r,
            seed,
            day,
        };
        let mut out = Vec::new();
        let mut scratch = KernelScratch::new();
        let f = simulate_location(&schedule, &day_visits, 0, &params, &mut scratch, &mut out);
        (out, f)
    }

    fn run(visits: &[V], r: f64) -> (Vec<InfectMsg>, LocationDayFeatures) {
        run_with(visits, r, 42, 0)
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
        let (out, f) = run(&[], 0.01);
        assert!(out.is_empty());
        assert_eq!(f.events, 0);
    }

    #[test]
    fn no_transmission_without_infectious() {
        let p = flu_model();
        let vs = vec![visit(1, sus(&p), 0, 100, 0), visit(2, sus(&p), 50, 150, 0)];
        let (out, f) = run(&vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.events, 4);
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn certain_transmission_with_r_one() {
        let p = flu_model();
        let vs = vec![visit(1, sus(&p), 0, 600, 0), visit(2, sym(&p), 0, 600, 0)];
        let (out, f) = run(&vs, 1.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].person, 1);
        assert_eq!(out[0].infector, 2);
        assert_eq!(f.interactions, 1);
    }

    #[test]
    fn no_interaction_across_sublocations() {
        let p = flu_model();
        let vs = vec![
            visit(1, sus(&p), 0, 600, 0),
            visit(2, sym(&p), 0, 600, 1), // different room
        ];
        let (out, f) = run(&vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn no_interaction_without_time_overlap() {
        let p = flu_model();
        let vs = vec![
            visit(1, sus(&p), 0, 100, 0),
            visit(2, sym(&p), 100, 400, 0), // back-to-back, zero overlap
        ];
        let (out, f) = run(&vs, 1.0);
        assert!(out.is_empty());
        assert_eq!(f.interactions, 0);
    }

    #[test]
    fn interaction_counts_are_pairwise_exact() {
        let p = flu_model();
        // Two infectious overlap one susceptible; one infectious arrives
        // during the stay, one is present beforehand.
        let vs = vec![
            visit(1, sus(&p), 100, 300, 0),
            visit(2, sym(&p), 0, 200, 0),   // present at arrival
            visit(3, sym(&p), 150, 400, 0), // arrives during stay
            visit(4, sym(&p), 350, 500, 0), // after departure — no overlap
        ];
        let (_, f) = run(&vs, 0.0001);
        assert_eq!(f.interactions, 2);
        assert!((f.sum_reciprocal_interactions - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_matches_closed_form() {
        // Single pair, moderate r: empirical infection rate over many
        // persons ≈ 1 − (1−r·s·ι)^τ.
        let p = flu_model();
        let r = 0.002;
        let tau = 120u16;
        let n = 4000u32;
        let mut infected = 0;
        for person in 0..n {
            let vs = vec![
                visit(person, sus(&p), 0, tau, 0),
                visit(1_000_000, sym(&p), 0, tau, 0),
            ];
            infected += run_with(&vs, r, 7, 3).0.len();
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
        let a = vec![
            visit(1, sus(&p), 0, 300, 0),
            visit(2, sym(&p), 100, 200, 0),
            visit(3, sym(&p), 50, 250, 0),
        ];
        let mut b = a.clone();
        b.reverse();
        let (out_a, fa) = run(&a, 0.01);
        let (out_b, fb) = run(&b, 0.01);
        assert_eq!(out_a, out_b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn vaccinated_scale_reduces_probability() {
        let p = flu_model();
        let count = |scale: f32| {
            let mut infected = 0;
            for person in 0..3000u32 {
                let vs = vec![
                    V {
                        sus_scale: scale,
                        ..visit(person, sus(&p), 0, 200, 0)
                    },
                    visit(9_999_999, sym(&p), 0, 200, 0),
                ];
                infected += run_with(&vs, 0.003, 11, 1).0.len();
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
        let count = |n_inf: u32| {
            let mut infected = 0;
            for person in 0..3000u32 {
                let mut vs = vec![visit(person, sus(&p), 0, 100, 0)];
                for j in 0..n_inf {
                    vs.push(visit(1_000_000 + j, sym(&p), 0, 100, 0));
                }
                infected += run_with(&vs, 0.002, 13, 2).0.len();
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
        let mut by_infector = std::collections::BTreeMap::new();
        for person in 0..4000u32 {
            let vs = vec![
                visit(person, sus(&p), 0, 400, 0),
                visit(1_000_077, sym(&p), 0, 400, 0), // full overlap
                visit(1_000_088, sym(&p), 380, 400, 0), // 20 minutes
            ];
            for i in run_with(&vs, 0.01, 17, 5).0 {
                *by_infector.entry(i.infector).or_insert(0u32) += 1;
            }
        }
        let c77 = by_infector.get(&1_000_077).copied().unwrap_or(0);
        let c88 = by_infector.get(&1_000_088).copied().unwrap_or(0);
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
        let (a, _) = run(&mk(), 0.004);
        let (b, _) = run(&mk(), 0.004);
        assert_eq!(a, b);
    }
}
