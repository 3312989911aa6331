//! PersonManager and LocationManager chares (§II-C).
//!
//! "We follow a two-level hierarchical data distribution technique … we
//! create two types of chares, LocationManagers (LM) and PersonManagers
//! (PM), each able to manage multiple second level objects representing
//! individual locations and persons … The individual chares in both arrays
//! handle the computation and communication of all location or person
//! objects assigned to them."

use crate::kernel::{
    simulate_location_day, InfectivityClasses, KernelScratch, LocationDayFeatures,
};
use crate::messages::{slots, InfectMsg, SharedRef, SimMsg, VisitMsg, BATCH_CHUNK};
use crate::person::{person_day, PersonSlot};
use chare_rt::{Chare, ChareId, Ctx};
use ptts::model::StateId;

/// Outgoing application-level batches: one `Vec` per destination manager,
/// sent when it reaches [`BATCH_CHUNK`] records and drained at the end of
/// the sending phase, so every buffer is empty at phase ends (the
/// checkpoint path relies on that).
///
/// A spent batch leaves by value (`std::mem::take`), so an idle buffer
/// holds no memory. A new batch is sized from what its destination got
/// the previous day; records beyond that grow it by doubling.
struct Outbox<T> {
    batches: Vec<Vec<T>>,
    /// Records sent to each destination so far in the current phase.
    sent: Vec<u32>,
    /// Records sent to each destination in the previous phase.
    prev: Vec<u32>,
}

impl<T> Outbox<T> {
    fn new(destinations: usize) -> Self {
        Outbox {
            batches: (0..destinations).map(|_| Vec::new()).collect(),
            sent: vec![0; destinations],
            prev: vec![0; destinations],
        }
    }

    /// Append a record for destination `d`; returns the batch once it is
    /// full.
    #[inline]
    fn push(&mut self, d: usize, rec: T) -> Option<Vec<T>> {
        let batch = &mut self.batches[d];
        if batch.capacity() == 0 {
            let expect = self.prev[d].saturating_sub(self.sent[d]) as usize;
            batch.reserve_exact(expect.min(BATCH_CHUNK));
        }
        batch.push(rec);
        self.sent[d] += 1;
        (batch.len() == BATCH_CHUNK).then(|| std::mem::take(batch))
    }

    /// End of phase: hand every non-empty batch to `send` with its
    /// destination index, and start the next phase's counts.
    fn flush(&mut self, mut send: impl FnMut(usize, Vec<T>)) {
        for (d, batch) in self.batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                send(d, std::mem::take(batch));
            }
        }
        std::mem::swap(&mut self.sent, &mut self.prev);
        self.sent.fill(0);
    }
}

/// A PersonManager: owns a set of persons, drives phases 1 and 5.
pub struct PersonManager {
    shared: SharedRef,
    persons: Vec<PersonSlot>,
    symptomatic_state: Option<StateId>,
    /// Scratch buffer reused across days.
    visit_buf: Vec<VisitMsg>,
    /// Outgoing visit batches, indexed `lm - k`.
    outbox: Outbox<VisitMsg>,
}

impl PersonManager {
    /// Build a PM owning `person_ids` (ascending order expected; local slot
    /// index must match `Shared::local_of_person`).
    pub fn new(shared: SharedRef, person_ids: Vec<u32>) -> Self {
        let persons = person_ids
            .iter()
            .map(|&id| PersonSlot::new(id, &shared.ptts))
            .collect();
        Self::with_states(shared, persons)
    }

    /// Build a PM from pre-existing person states (chare migration: the
    /// §VII load-rebalancing path re-homes persons between epochs).
    pub fn with_states(shared: SharedRef, persons: Vec<PersonSlot>) -> Self {
        let symptomatic_state = shared.ptts.state_by_name("symptomatic");
        let outbox = Outbox::new(shared.layout.k as usize);
        PersonManager {
            shared,
            persons,
            symptomatic_state,
            visit_buf: Vec::new(),
            outbox,
        }
    }

    /// Take the person states out (after `Runtime::into_chares`).
    pub fn into_persons(self) -> Vec<PersonSlot> {
        self.persons
    }

    /// Seed an initial infection (before day 0).
    pub fn seed_infection(&mut self, local_idx: u32) {
        let shared = self.shared.clone();
        self.persons[local_idx as usize].seed(&shared.ptts, shared.seed);
    }

    /// The owned persons (read access for tests and result extraction).
    pub fn persons(&self) -> &[PersonSlot] {
        &self.persons
    }

    fn begin_day(
        &mut self,
        day: u32,
        effects: &crate::messages::DayEffects,
        ctx: &mut Ctx<'_, SimMsg>,
    ) {
        let shared = self.shared.clone();
        let k = shared.layout.k;
        let mut symptomatic = 0u64;
        let mut infected_now = 0u64;
        let mut susceptible = 0u64;
        let mut visits_sent = 0u64;
        for slot in &mut self.persons {
            self.visit_buf.clear();
            let sym = person_day(
                slot,
                &shared.pop,
                &shared.ptts,
                effects,
                self.symptomatic_state,
                Some(&shared.layout.orig_of_location),
                shared.seed,
                day,
                &mut self.visit_buf,
            );
            symptomatic += sym as u64;
            infected_now += slot.is_infected() as u64;
            susceptible += shared.ptts.is_susceptible(slot.health.state) as u64;
            visits_sent += self.visit_buf.len() as u64;
            for msg in self.visit_buf.drain(..) {
                let lm = shared.layout.lm_of_location[msg.location as usize];
                if let Some(full) = self.outbox.push((lm - k) as usize, msg) {
                    ctx.send(ChareId(lm), SimMsg::Visits(full));
                }
            }
        }
        self.outbox
            .flush(|d, batch| ctx.send(ChareId(k + d as u32), SimMsg::Visits(batch)));
        ctx.contribute(slots::SYMPTOMATIC, symptomatic);
        ctx.contribute(slots::INFECTED_NOW, infected_now);
        ctx.contribute(slots::SUSCEPTIBLE, susceptible);
        ctx.contribute(slots::VISITS_SENT, visits_sent);
    }

    fn apply_day(&mut self, day: u32, ctx: &mut Ctx<'_, SimMsg>) {
        let shared = self.shared.clone();
        let mut new_infections = 0u64;
        for slot in &mut self.persons {
            new_infections += slot.apply_pending(&shared.ptts, shared.seed, day) as u64;
        }
        ctx.contribute(slots::NEW_INFECTIONS, new_infections);
    }
}

impl Chare<SimMsg> for PersonManager {
    fn receive(&mut self, msg: SimMsg, ctx: &mut Ctx<'_, SimMsg>) {
        match msg {
            SimMsg::BeginDay { day, effects } => self.begin_day(day, &effects, ctx),
            SimMsg::Infects(batch) => {
                let local_of_person = &self.shared.layout.local_of_person;
                for infect in &batch {
                    let local = local_of_person[infect.person as usize] as usize;
                    self.persons[local].record_infection(infect);
                }
            }
            SimMsg::ApplyDay { day } => self.apply_day(day, ctx),
            other => panic!("PersonManager got unexpected message {other:?}"),
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        // Person state is the only chare state that cannot be rebuilt from
        // deterministic construction; LocationManagers keep the default
        // `None` (visit buffers are empty at day boundaries and feature
        // totals are analysis-only).
        Some(crate::checkpoint::encode_person_shard(&self.persons).to_vec())
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A LocationManager: owns a set of locations, scatters each received
/// [`SimMsg::Visits`] batch into per-location buffers (as the sequential
/// oracle does), and runs the DES in phase 3, sending the day's infects as
/// one [`SimMsg::Infects`] batch per destination PersonManager.
pub struct LocationManager {
    shared: SharedRef,
    /// Global location ids owned, ordered by local slot.
    locations: Vec<u32>,
    /// Per-location visit buffer for the current day. Kept flat (the kernel
    /// sorts by a packed sublocation/start/person key): grouping visits by
    /// sublocation at insert time was measured slower end-to-end, because
    /// it adds a binary search per received visit on the message-receive
    /// path (EXPERIMENTS.md, "Performance methodology", a negative result).
    buffers: Vec<Vec<VisitMsg>>,
    classes: InfectivityClasses,
    /// DES working memory reused across locations and days.
    scratch: KernelScratch,
    /// Accumulated per-location features of the most recent day (exposed
    /// for load-model calibration).
    pub last_features: Vec<LocationDayFeatures>,
    /// Per-location features summed over every day this LM has computed —
    /// the measured dynamic load the §VII rebalancer feeds on.
    pub feature_totals: Vec<LocationDayFeatures>,
    infect_buf: Vec<InfectMsg>,
    /// Outgoing infect batches, indexed by PM chare id.
    outbox: Outbox<InfectMsg>,
}

impl LocationManager {
    /// Build an LM owning `location_ids` (local slot order must match
    /// `Shared::local_of_location`).
    pub fn new(shared: SharedRef, location_ids: Vec<u32>) -> Self {
        let n = location_ids.len();
        let classes = InfectivityClasses::new(&shared.ptts);
        let outbox = Outbox::new(shared.layout.k as usize);
        LocationManager {
            shared,
            locations: location_ids,
            buffers: vec![Vec::new(); n],
            classes,
            scratch: KernelScratch::new(),
            last_features: vec![LocationDayFeatures::default(); n],
            feature_totals: vec![LocationDayFeatures::default(); n],
            infect_buf: Vec::new(),
            outbox,
        }
    }

    /// The owned location ids.
    pub fn locations(&self) -> &[u32] {
        &self.locations
    }

    fn compute_day(&mut self, day: u32, r_eff: f64, ctx: &mut Ctx<'_, SimMsg>) {
        let shared = self.shared.clone();
        let mut events = 0u64;
        let mut interactions = 0u64;
        let mut infects_sent = 0u64;
        let mut by_kind = [0u64; 5];
        for li in 0..self.locations.len() {
            self.infect_buf.clear();
            let features = simulate_location_day(
                &mut self.buffers[li],
                &shared.ptts,
                &self.classes,
                r_eff,
                shared.seed,
                day,
                &mut self.scratch,
                &mut self.infect_buf,
            );
            self.buffers[li].clear();
            events += features.events;
            interactions += features.interactions;
            infects_sent += self.infect_buf.len() as u64;
            let kind = shared.pop.locations[self.locations[li] as usize].kind as usize;
            by_kind[kind] += self.infect_buf.len() as u64;
            self.last_features[li] = features;
            let tot = &mut self.feature_totals[li];
            tot.events += features.events;
            tot.interactions += features.interactions;
            tot.sum_reciprocal_interactions += features.sum_reciprocal_interactions;
            for infect in self.infect_buf.drain(..) {
                let pm = shared.layout.pm_of_person[infect.person as usize];
                if let Some(full) = self.outbox.push(pm as usize, infect) {
                    ctx.send(ChareId(pm), SimMsg::Infects(full));
                }
            }
        }
        self.outbox
            .flush(|pm, batch| ctx.send(ChareId(pm as u32), SimMsg::Infects(batch)));
        ctx.contribute(slots::EVENTS, events);
        ctx.contribute(slots::INTERACTIONS, interactions);
        ctx.contribute(slots::INFECTS_SENT, infects_sent);
        for (k, &n) in by_kind.iter().enumerate() {
            if n > 0 {
                ctx.contribute(slots::BY_KIND_BASE + k, n);
            }
        }
    }
}

impl Chare<SimMsg> for LocationManager {
    fn receive(&mut self, msg: SimMsg, ctx: &mut Ctx<'_, SimMsg>) {
        match msg {
            SimMsg::Visits(batch) => {
                let local_of_location = &self.shared.layout.local_of_location;
                for v in batch {
                    self.buffers[local_of_location[v.location as usize] as usize].push(v);
                }
            }
            SimMsg::ComputeDay { day, r_eff } => self.compute_day(day, r_eff, ctx),
            other => panic!("LocationManager got unexpected message {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}
