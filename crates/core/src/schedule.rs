//! Static visit schedules: the location DES's input, laid out once per
//! world instead of rebuilt every day.
//!
//! Each location "constructs a sequential and local DES by converting each
//! visit message into an arrive event and depart event" (§II-B step 3).
//! Everything about those events except the visitor's health today comes
//! from the normative schedule, which is static input. [`VisitSchedule`]
//! therefore orders every visit of the population once, with counting
//! passes only:
//!
//! * **Slots.** Every visit gets a *slot*: its position in canonical
//!   `(location, sublocation, start, person)` order, ties broken by static
//!   visit index. Locations are numbered partition-major (each
//!   partition's locations in its local order), so one LocationManager's
//!   slots form one contiguous range.
//! * **Groups.** The slots of one `(location, sublocation)` pair form a
//!   *group* — the unit the DES sweeps. Only pairs with visits get one.
//! * **Departures.** Each group also stores its slots ordered by
//!   `(end, slot)`: the order in which a sweep meets their depart events.
//!
//! A visit message then names only its slot and the visitor's state today
//! ([`crate::messages::VisitMsg`]). The receiver ([`DayVisits`]) writes the
//! record into a per-slot day array and marks the group *hot* when the
//! visitor is infectious; the kernel sweeps hot groups only, merging the
//! static arrival and departure streams filtered by today's presence.

use crate::kernel::{
    simulate_location, InfectivityClasses, KernelParams, KernelScratch, LocationDayFeatures,
};
use crate::messages::{InfectMsg, VisitMsg};
use ptts::model::StateId;
use std::ops::Range;
use synthpop::Population;

/// Every visit of a population in canonical DES order, with the per-group
/// departure order precomputed. Immutable; shared by every manager and
/// every ensemble member of a world.
#[derive(Debug, Clone)]
pub struct VisitSchedule {
    /// `(person, start, end)` per slot, in one array so the sweep reads
    /// one place per visit.
    visits: Vec<(u32, u16, u16)>,
    /// Group per slot.
    group_of_slot: Vec<u32>,
    /// Static visit index (position in `Population::visits`) → slot.
    slot_of_visit: Vec<u32>,
    /// Group `g` owns slots `group_start[g]..group_start[g + 1]`.
    group_start: Vec<u32>,
    /// Each group's slots ordered by `(end, slot)`, stored in the group's
    /// own slot range.
    depart: Vec<u32>,
    /// Location rank `r` owns groups `rank_group_start[r]..[r + 1]`.
    rank_group_start: Vec<u32>,
    /// Global location id per rank (partition-major).
    location_of_rank: Vec<u32>,
    /// Partition `p` owns ranks `part_rank_start[p]..[p + 1]`.
    part_rank_start: Vec<u32>,
}

/// Bucket starts of a counting sort: `n_keys + 1` prefix sums of the key
/// counts.
fn bucket_starts(keys: impl Iterator<Item = usize>, n_keys: usize) -> Vec<u32> {
    let mut starts = vec![0u32; n_keys + 1];
    for k in keys {
        starts[k + 1] += 1;
    }
    for k in 0..n_keys {
        starts[k + 1] += starts[k];
    }
    starts
}

/// The placement pass of a stable counting sort: each `(key, item)` goes
/// to the next free position of its bucket. The pairs carry their items,
/// so the pass reads its input once, in order.
fn place<T: Copy + Default>(pairs: impl Iterator<Item = (usize, T)>, starts: &[u32]) -> Vec<T> {
    let mut cursor = starts.to_vec();
    let mut out = vec![T::default(); starts[starts.len() - 1] as usize];
    for (k, item) in pairs {
        out[cursor[k] as usize] = item;
        cursor[k] += 1;
    }
    out
}

impl VisitSchedule {
    /// Lay out the visits of `pop`, with locations ranked partition by
    /// partition in the order `parts` lists them. `parts` must name every
    /// location exactly once.
    ///
    /// Four stable counting passes, no comparison sort: visits (already
    /// person-major) by start, then by sublocation group, give canonical
    /// order; slots by end, then by group, give departure order.
    pub(crate) fn build(pop: &Population, parts: &[Vec<u32>]) -> VisitSchedule {
        let visits = &pop.visits;
        let n_locations = pop.locations.len();
        let mut location_of_rank = Vec::with_capacity(n_locations);
        let mut part_rank_start = Vec::with_capacity(parts.len() + 1);
        part_rank_start.push(0);
        for part in parts {
            location_of_rank.extend_from_slice(part);
            part_rank_start.push(location_of_rank.len() as u32);
        }
        assert_eq!(
            location_of_rank.len(),
            n_locations,
            "the partitions must cover every location once"
        );

        // Raw sublocation ids: every (location, sublocation) pair, numbered
        // in rank order.
        let mut sub_base = vec![u32::MAX; n_locations];
        let mut n_raw = 0usize;
        for &l in &location_of_rank {
            assert_eq!(sub_base[l as usize], u32::MAX, "location {l} listed twice");
            sub_base[l as usize] = n_raw as u32;
            n_raw += pop.locations[l as usize].n_sublocations as usize;
        }
        let raw_of: Vec<u32> = visits
            .iter()
            .map(|v| {
                debug_assert!(
                    v.sublocation.0 < pop.locations[v.location.0 as usize].n_sublocations
                );
                sub_base[v.location.0 as usize] + v.sublocation.0 as u32
            })
            .collect();

        // Canonical order: visit index order is person-major, so a stable
        // pass by start and then one by raw sublocation leaves
        // (sublocation, start, person, visit index).
        let max_start = visits.iter().map(|v| v.start_min).max().unwrap_or(0) as usize;
        let start_buckets =
            bucket_starts(visits.iter().map(|v| v.start_min as usize), max_start + 1);
        let by_start: Vec<(u32, u32)> = place(
            visits
                .iter()
                .zip(&raw_of)
                .enumerate()
                .map(|(i, (v, &r))| (v.start_min as usize, (r, i as u32))),
            &start_buckets,
        );
        let raw_start = bucket_starts(raw_of.iter().map(|&r| r as usize), n_raw);
        drop(raw_of);
        let canon: Vec<u32> = place(by_start.iter().map(|&(r, i)| (r as usize, i)), &raw_start);
        drop(by_start);

        let n = visits.len();
        let mut slot_of_visit = vec![0u32; n];
        let slot_visits: Vec<(u32, u16, u16)> = canon
            .iter()
            .enumerate()
            .map(|(slot, &i)| {
                slot_of_visit[i as usize] = slot as u32;
                let v = &visits[i as usize];
                (v.person.0, v.start_min, v.end_min())
            })
            .collect();
        drop(canon);

        // Groups: the non-empty raw sublocations, still in rank order.
        let mut group_of_slot = vec![0u32; n];
        let mut group_start = vec![0u32];
        let mut rank_group_start = Vec::with_capacity(n_locations + 1);
        rank_group_start.push(0);
        for &l in &location_of_rank {
            let base = sub_base[l as usize] as usize;
            for r in base..base + pop.locations[l as usize].n_sublocations as usize {
                let (lo, hi) = (raw_start[r], raw_start[r + 1]);
                if hi > lo {
                    let g = group_start.len() as u32 - 1;
                    group_of_slot[lo as usize..hi as usize].fill(g);
                    group_start.push(hi);
                }
            }
            rank_group_start.push(group_start.len() as u32 - 1);
        }
        debug_assert!(
            (1..n).all(|s| group_of_slot[s] != group_of_slot[s - 1]
                || (slot_visits[s - 1].1, slot_visits[s - 1].0)
                    < (slot_visits[s].1, slot_visits[s].0)),
            "two visits share (location, sublocation, start, person)"
        );

        // Departure order: slots by end, then stably by group. A group's
        // bucket starts at its own first slot, so `depart` shares the slot
        // ranges.
        let max_end = slot_visits.iter().map(|v| v.2).max().unwrap_or(0) as usize;
        let end_buckets = bucket_starts(slot_visits.iter().map(|v| v.2 as usize), max_end + 1);
        let by_end: Vec<(u32, u32)> = place(
            slot_visits
                .iter()
                .zip(&group_of_slot)
                .enumerate()
                .map(|(s, (v, &g))| (v.2 as usize, (g, s as u32))),
            &end_buckets,
        );
        let depart: Vec<u32> = place(by_end.iter().map(|&(g, s)| (g as usize, s)), &group_start);

        VisitSchedule {
            visits: slot_visits,
            group_of_slot,
            slot_of_visit,
            group_start,
            depart,
            rank_group_start,
            location_of_rank,
            part_rank_start,
        }
    }

    /// A single-partition schedule with locations in id order (the
    /// plain-loop oracle's world).
    pub fn unpartitioned(pop: &Population) -> VisitSchedule {
        VisitSchedule::build(pop, &[(0..pop.locations.len() as u32).collect()])
    }

    /// Number of slots (= visits).
    pub(crate) fn n_slots(&self) -> usize {
        self.visits.len()
    }

    /// Number of partitions.
    pub(crate) fn n_parts(&self) -> u32 {
        self.part_rank_start.len() as u32 - 1
    }

    /// The slot of static visit `i` (its index in `Population::visits`).
    #[inline]
    pub fn slot_of_visit(&self, i: usize) -> u32 {
        self.slot_of_visit[i]
    }

    /// Location ranks of partitions `parts`.
    pub(crate) fn ranks_of(&self, parts: Range<u32>) -> Range<usize> {
        self.part_rank_start[parts.start as usize] as usize
            ..self.part_rank_start[parts.end as usize] as usize
    }

    /// Locations of partitions `parts`, in rank order.
    pub(crate) fn locations_of(&self, parts: Range<u32>) -> &[u32] {
        &self.location_of_rank[self.ranks_of(parts)]
    }

    /// Global location id of rank `r`.
    #[inline]
    pub(crate) fn location_of_rank(&self, r: usize) -> u32 {
        self.location_of_rank[r]
    }

    /// Groups of location rank `r`.
    #[inline]
    pub(crate) fn groups_of_rank(&self, r: usize) -> Range<usize> {
        self.rank_group_start[r] as usize..self.rank_group_start[r + 1] as usize
    }

    /// Slots of group `g`, in canonical (arrival) order.
    #[inline]
    pub(crate) fn slots_of_group(&self, g: usize) -> Range<usize> {
        self.group_start[g] as usize..self.group_start[g + 1] as usize
    }

    /// Slots of group `g` in departure order.
    #[inline]
    pub(crate) fn departures_of_group(&self, g: usize) -> &[u32] {
        &self.depart[self.slots_of_group(g)]
    }

    /// `(person, start, end)` of a slot.
    #[inline]
    pub(crate) fn visit(&self, slot: usize) -> (u32, u16, u16) {
        self.visits[slot]
    }

    /// Slot range of the ranks `ranks`.
    fn slots_of_ranks(&self, ranks: &Range<usize>) -> Range<usize> {
        self.group_start[self.rank_group_start[ranks.start] as usize] as usize
            ..self.group_start[self.rank_group_start[ranks.end] as usize] as usize
    }
}

/// One slot of the receiving side: its group (static) and the visitor's
/// state, stamped with the generation of the day it arrived on. Keeping
/// the group beside the record makes receiving a visit touch one slot and
/// one group counter.
#[derive(Debug, Clone, Copy)]
struct SlotRecord {
    gen: u16,
    state: StateId,
    /// Group, relative to the owner's first group.
    group: u32,
    sus_scale: f32,
}

/// The hot flag in a packed group counter; the low bits count the visits
/// present.
const HOT: u32 = 1 << 31;

/// The receiving side of the location phase for one owner — a
/// LocationManager, or the plain-loop arena — covering the contiguous slot
/// range of its partitions.
///
/// [`DayVisits::record`] stores each arriving visit message in its slot and
/// counts it; the day's compute ([`DayVisits::compute`]) sweeps the hot
/// groups and then bumps the generation, so every slot of the finished day
/// is stale at once. Presence is "stamped with the current generation",
/// never "stamped with today's day number": a replayed or re-run day can
/// never see a stale slot.
#[derive(Debug, Default)]
pub struct DayVisits {
    /// Location ranks covered.
    ranks: Range<usize>,
    /// First slot covered.
    slot_base: usize,
    /// First group covered.
    group_base: usize,
    /// Generation of the day being received (never 0; wraps after 65535
    /// days, clearing every stamp).
    gen: u16,
    /// Per slot.
    recs: Vec<SlotRecord>,
    /// Per group: visits present today, with [`HOT`] set when one of them
    /// is infectious.
    groups: Vec<u32>,
}

impl DayVisits {
    /// A receiver for the slots of partitions `parts` of `sched`.
    pub fn for_parts(sched: &VisitSchedule, parts: Range<u32>) -> DayVisits {
        let mut d = DayVisits::default();
        d.reset(sched, parts);
        d
    }

    /// Cover partitions `parts` of `sched`, with nothing present; reuses
    /// capacity.
    pub(crate) fn reset(&mut self, sched: &VisitSchedule, parts: Range<u32>) {
        let ranks = sched.ranks_of(parts);
        let slots = sched.slots_of_ranks(&ranks);
        let groups = sched.rank_group_start[ranks.start] as usize
            ..sched.rank_group_start[ranks.end] as usize;
        self.slot_base = slots.start;
        self.group_base = groups.start;
        self.ranks = ranks;
        self.recs.clear();
        self.recs
            .extend(sched.group_of_slot[slots].iter().map(|&g| SlotRecord {
                gen: 0,
                group: g - groups.start as u32,
                state: StateId(0),
                sus_scale: 0.0,
            }));
        self.groups.clear();
        self.groups.resize(groups.len(), 0);
        self.gen = 1;
    }

    /// Location ranks covered.
    pub fn ranks(&self) -> Range<usize> {
        self.ranks.clone()
    }

    /// Receive one visit message. A repeated slot overwrites the record
    /// and is counted once.
    #[inline]
    pub fn record(&mut self, classes: &InfectivityClasses, v: &VisitMsg) {
        let rec = &mut self.recs[v.slot as usize - self.slot_base];
        let group = &mut self.groups[rec.group as usize];
        *group += (rec.gen != self.gen) as u32;
        if classes.is_infectious(v.state) {
            *group |= HOT;
        }
        rec.gen = self.gen;
        rec.state = v.state;
        rec.sus_scale = v.sus_scale;
    }

    /// Today's `(state, sus_scale)` at `slot`, if its visit was received.
    #[inline]
    pub(crate) fn get(&self, slot: usize) -> Option<(StateId, f32)> {
        let rec = &self.recs[slot - self.slot_base];
        (rec.gen == self.gen).then_some((rec.state, rec.sus_scale))
    }

    /// Visits present today in group `g`.
    #[inline]
    pub(crate) fn present_in(&self, g: usize) -> u32 {
        self.groups[g - self.group_base] & !HOT
    }

    /// Whether group `g` has an infectious visitor today.
    #[inline]
    pub(crate) fn is_hot(&self, g: usize) -> bool {
        self.groups[g - self.group_base] & HOT != 0
    }

    /// Run the day's DES over every covered location in rank order, then
    /// close the day. `each(i, location, features, infects)` sees the
    /// `i`-th covered location, its features and the infects it produced
    /// (`out` is their reused buffer).
    pub fn compute(
        &mut self,
        sched: &VisitSchedule,
        params: &KernelParams<'_>,
        scratch: &mut KernelScratch,
        out: &mut Vec<InfectMsg>,
        mut each: impl FnMut(usize, u32, LocationDayFeatures, &[InfectMsg]),
    ) {
        for (i, rank) in self.ranks.clone().enumerate() {
            out.clear();
            let features = simulate_location(sched, self, rank, params, scratch, out);
            each(i, sched.location_of_rank(rank), features, out);
        }
        out.clear();
        self.end_day();
    }

    /// Close the day: nothing is present any more.
    fn end_day(&mut self) {
        self.groups.fill(0);
        if self.gen == u16::MAX {
            for rec in &mut self.recs {
                rec.gen = 0;
            }
            self.gen = 0;
        }
        self.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptts::flu_model;
    use synthpop::PopulationConfig;

    /// Round-robin-like partitions of every location, each listed in a
    /// seeded order, so ranks differ from location ids.
    fn parts(n_locations: u32, k: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut parts = vec![Vec::new(); k as usize];
        for l in 0..n_locations {
            let h = (l as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            parts[(h >> 40) as usize % k as usize].push(l);
        }
        for (p, part) in parts.iter_mut().enumerate() {
            if (seed + p as u64) % 2 == 1 {
                part.reverse();
            }
        }
        parts
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Canonical and departure orders equal a comparison sort of the
        /// same keys, groups are exactly the non-empty (location,
        /// sublocation) pairs, and each partition's slots are contiguous.
        #[test]
        fn orders_match_a_comparison_sort(
            n in 50u32..600,
            pop_seed in 0u64..1000,
            k in 1u32..5,
            part_seed in 0u64..1000,
        ) {
            let pop = Population::generate(&PopulationConfig::small("S", n, pop_seed));
            let parts = parts(pop.n_locations(), k, part_seed);
            let sched = VisitSchedule::build(&pop, &parts);
            let mut rank = vec![0usize; pop.locations.len()];
            for (r, &l) in parts.iter().flatten().enumerate() {
                rank[l as usize] = r;
            }
            let key = |i: usize| {
                let v = &pop.visits[i];
                (rank[v.location.0 as usize], v.sublocation.0, v.start_min, v.person.0, i)
            };
            let mut canon: Vec<usize> = (0..pop.visits.len()).collect();
            canon.sort_by_key(|&i| key(i));
            for (slot, &i) in canon.iter().enumerate() {
                proptest::prop_assert_eq!(sched.slot_of_visit(i) as usize, slot);
                let v = &pop.visits[i];
                proptest::prop_assert_eq!(
                    sched.visit(slot),
                    (v.person.0, v.start_min, v.end_min())
                );
            }
            let mut slot = 0;
            for r in 0..pop.locations.len() {
                for g in sched.groups_of_rank(r) {
                    let slots = sched.slots_of_group(g);
                    proptest::prop_assert_eq!(slots.start, slot);
                    proptest::prop_assert!(!slots.is_empty());
                    let (lr, sub, ..) = key(canon[slots.start]);
                    for s in slots.clone() {
                        let (lr2, sub2, ..) = key(canon[s]);
                        proptest::prop_assert_eq!((lr2, sub2), (lr, sub));
                    }
                    proptest::prop_assert_eq!(lr, r);
                    let mut by_end: Vec<u32> = slots.clone().map(|s| s as u32).collect();
                    by_end.sort_by_key(|&s| (sched.visit(s as usize).2, s));
                    proptest::prop_assert_eq!(sched.departures_of_group(g), &by_end[..]);
                    slot = slots.end;
                }
            }
            proptest::prop_assert_eq!(slot, pop.visits.len());
            let mut prev_end = 0;
            for p in 0..k {
                let ranks = sched.ranks_of(p..p + 1);
                let slots = sched.slots_of_ranks(&ranks);
                proptest::prop_assert_eq!(slots.start, prev_end);
                proptest::prop_assert_eq!(sched.locations_of(p..p + 1), &parts[p as usize][..]);
                prev_end = slots.end;
            }
        }
    }

    #[test]
    fn a_closed_day_leaves_nothing_present() {
        let pop = Population::generate(&PopulationConfig::small("S", 200, 1));
        let sched = VisitSchedule::build(&pop, &parts(pop.n_locations(), 3, 5));
        let ptts = flu_model();
        let classes = InfectivityClasses::new(&ptts);
        let sym = ptts.state_by_name("symptomatic").unwrap();
        let mut day = DayVisits::for_parts(&sched, 1..2);
        let slots = sched.slots_of_ranks(&day.ranks());
        let msg = |slot: usize| VisitMsg {
            slot: slot as u32,
            state: sym,
            sus_scale: 1.0,
        };
        day.record(&classes, &msg(slots.start));
        // A repeated record is counted once.
        day.record(&classes, &msg(slots.start));
        let g = sched.group_of_slot[slots.start] as usize;
        assert_eq!(day.present_in(g), 1);
        assert!(day.is_hot(g));
        assert_eq!(day.get(slots.start), Some((sym, 1.0)));
        assert_eq!(day.get(slots.start + 1), None);
        day.end_day();
        assert_eq!(day.present_in(g), 0);
        assert!(!day.is_hot(g));
        assert_eq!(day.get(slots.start), None, "yesterday's record is stale");
        // Generation wrap-around keeps old records stale.
        day.record(&classes, &msg(slots.start));
        day.gen = u16::MAX;
        day.end_day();
        assert_eq!(day.gen, 1);
        assert_eq!(day.get(slots.start), None);
    }
}
