//! Simulator messages and shared immutable state.

use crate::schedule::VisitSchedule;
use bytes::{Buf, BufMut, BytesMut};
use chare_rt::Message;
use ptts::intervention::VaccinationOrder;
use ptts::model::{StateId, TreatmentId};
use ptts::Ptts;
use std::sync::Arc;
use synthpop::Population;

/// A visit message: "the object representing the person sends a 'visit'
/// message to the object representing the visited location with the ID of
/// the person, the start time and the end time of the visit, as well as the
/// person's health state" (§II-B step 1).
///
/// Person, location, sublocation and times are static input, so the
/// message names the visit by its slot in the world's
/// [`crate::schedule::VisitSchedule`], which holds them, and carries only
/// what changes day to day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitMsg {
    /// The visit's slot in the schedule.
    pub slot: u32,
    /// The person's health state today.
    pub state: StateId,
    /// Personal susceptibility multiplier (vaccine efficacy etc.).
    pub sus_scale: f32,
}

/// An infect message: "for each interaction that results in disease
/// transmission, an 'infect' message is sent to the infected person"
/// (§II-B step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InfectMsg {
    /// Person being infected.
    pub person: u32,
    /// Minute of infection (for deterministic dedup across sources).
    pub time_min: u16,
    /// Who transmitted.
    pub infector: u32,
}

/// Per-day intervention effects, broadcast to PersonManagers.
#[derive(Debug, Clone, Default)]
pub struct DayEffects {
    /// Bitmask over location kinds: bit k set ⇒ kind k closed today.
    pub closed_kinds: u8,
    /// Multiplier on transmissibility (social distancing).
    pub r_scale: f64,
    /// Vaccination orders activating today.
    pub vaccinations: Vec<VaccinationOrder>,
}

impl DayEffects {
    /// No active interventions.
    pub fn none() -> Self {
        DayEffects {
            closed_kinds: 0,
            r_scale: 1.0,
            vaccinations: Vec::new(),
        }
    }

    /// Is location kind `k` closed?
    #[inline]
    pub fn is_closed(&self, kind: u8) -> bool {
        kind < 8 && (self.closed_kinds >> kind) & 1 == 1
    }

    /// Build the bitmask from the intervention crate's bool array.
    pub fn from_flags(flags: &[bool]) -> u8 {
        flags
            .iter()
            .enumerate()
            .take(8)
            .fold(0u8, |m, (i, &c)| if c { m | (1 << i) } else { m })
    }
}

/// All messages exchanged in the simulation.
#[derive(Debug, Clone)]
pub enum SimMsg {
    /// Phase 1 kick-off, sent to every PersonManager.
    BeginDay {
        /// Simulation day (0-based).
        day: u32,
        /// Intervention effects in force.
        effects: DayEffects,
    },
    /// Visits from one PersonManager to one LocationManager (the hot
    /// path): at most [`BATCH_CHUNK`] records, each bound for one of the
    /// destination's locations.
    Visits(Vec<VisitMsg>),
    /// Phase 2 kick-off, sent to every LocationManager.
    ComputeDay {
        /// Simulation day.
        day: u32,
        /// Effective transmissibility `r × r_scale`.
        r_eff: f64,
    },
    /// Disease transmissions from one LocationManager to one
    /// PersonManager, at most [`BATCH_CHUNK`] records.
    Infects(Vec<InfectMsg>),
    /// Phase 3 kick-off, sent to every PersonManager.
    ApplyDay {
        /// Simulation day.
        day: u32,
    },
}

/// Records per [`SimMsg::Visits`] / [`SimMsg::Infects`] batch. A manager
/// sends a batch once it holds this many records, and every non-empty
/// batch at the end of its phase. A full visit batch encodes to
/// 5 + 10·4096 bytes (about 41 KB), so its net-engine BATCH frame fits in
/// one frame of the default 256 KiB shared-memory ring (`max_frame` is half
/// the ring) and full batches never fall back to the comm thread.
pub const BATCH_CHUNK: usize = 4096;

/// Encoded size of a batch header: the tag byte and the `u32` count.
pub const BATCH_HEADER_BYTES: usize = 5;
/// Encoded size of one visit record: slot `u32`, state `u16`,
/// `sus_scale` `f32`.
pub const VISIT_BYTES: usize = 10;
/// Encoded size of one infect record: person `u32`, minute `u16`,
/// infector `u32`.
pub const INFECT_BYTES: usize = 10;
/// Encoded size of one vaccination order in [`SimMsg::BeginDay`].
const VACCINATION_BYTES: usize = 18;

/// Wire tags for [`SimMsg`] variants (the first byte of the encoding;
/// DESIGN.md §8 pins them).
mod tag {
    pub const BEGIN_DAY: u8 = 0;
    pub const VISITS: u8 = 1;
    pub const COMPUTE_DAY: u8 = 2;
    pub const INFECTS: u8 = 3;
    pub const APPLY_DAY: u8 = 4;
}

impl Message for SimMsg {
    fn size_bytes(&self) -> usize {
        // Exactly the `wire_encode` length (the codec tests pin it).
        match self {
            SimMsg::Visits(v) => BATCH_HEADER_BYTES + VISIT_BYTES * v.len(),
            SimMsg::Infects(i) => BATCH_HEADER_BYTES + INFECT_BYTES * i.len(),
            SimMsg::BeginDay { effects, .. } => 18 + VACCINATION_BYTES * effects.vaccinations.len(),
            SimMsg::ComputeDay { .. } => 13,
            SimMsg::ApplyDay { .. } => 5,
        }
    }

    fn wire_encode(&self, out: &mut BytesMut) {
        match self {
            SimMsg::BeginDay { day, effects } => {
                out.put_u8(tag::BEGIN_DAY);
                out.put_u32_le(*day);
                out.put_u8(effects.closed_kinds);
                out.put_f64_le(effects.r_scale);
                out.put_u32_le(effects.vaccinations.len() as u32);
                for v in &effects.vaccinations {
                    out.put_f64_le(v.fraction);
                    out.put_u16_le(v.treatment.0);
                    out.put_f64_le(v.efficacy_factor);
                }
            }
            SimMsg::Visits(batch) => {
                out.put_u8(tag::VISITS);
                out.put_u32_le(batch.len() as u32);
                for v in batch {
                    out.put_u32_le(v.slot);
                    out.put_u16_le(v.state.0);
                    out.put_f32_le(v.sus_scale);
                }
            }
            SimMsg::ComputeDay { day, r_eff } => {
                out.put_u8(tag::COMPUTE_DAY);
                out.put_u32_le(*day);
                out.put_f64_le(*r_eff);
            }
            SimMsg::Infects(batch) => {
                out.put_u8(tag::INFECTS);
                out.put_u32_le(batch.len() as u32);
                for i in batch {
                    out.put_u32_le(i.person);
                    out.put_u16_le(i.time_min);
                    out.put_u32_le(i.infector);
                }
            }
            SimMsg::ApplyDay { day } => {
                out.put_u8(tag::APPLY_DAY);
                out.put_u32_le(*day);
            }
        }
    }

    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        match buf.get_u8() {
            tag::BEGIN_DAY => {
                if buf.remaining() < 17 {
                    return None;
                }
                let day = buf.get_u32_le();
                let closed_kinds = buf.get_u8();
                let r_scale = buf.get_f64_le();
                let n = buf.get_u32_le() as usize;
                if buf.remaining() < n.checked_mul(VACCINATION_BYTES)? {
                    return None;
                }
                let mut vaccinations = Vec::with_capacity(n);
                for _ in 0..n {
                    vaccinations.push(VaccinationOrder {
                        fraction: buf.get_f64_le(),
                        treatment: TreatmentId(buf.get_u16_le()),
                        efficacy_factor: buf.get_f64_le(),
                    });
                }
                Some(SimMsg::BeginDay {
                    day,
                    effects: DayEffects {
                        closed_kinds,
                        r_scale,
                        vaccinations,
                    },
                })
            }
            tag::VISITS => {
                let n = batch_len(buf, VISIT_BYTES)?;
                let batch = (0..n)
                    .map(|_| VisitMsg {
                        slot: buf.get_u32_le(),
                        state: StateId(buf.get_u16_le()),
                        sus_scale: buf.get_f32_le(),
                    })
                    .collect();
                Some(SimMsg::Visits(batch))
            }
            tag::COMPUTE_DAY => {
                if buf.remaining() < 12 {
                    return None;
                }
                Some(SimMsg::ComputeDay {
                    day: buf.get_u32_le(),
                    r_eff: buf.get_f64_le(),
                })
            }
            tag::INFECTS => {
                let n = batch_len(buf, INFECT_BYTES)?;
                let batch = (0..n)
                    .map(|_| InfectMsg {
                        person: buf.get_u32_le(),
                        time_min: buf.get_u16_le(),
                        infector: buf.get_u32_le(),
                    })
                    .collect();
                Some(SimMsg::Infects(batch))
            }
            tag::APPLY_DAY => {
                if buf.remaining() < 4 {
                    return None;
                }
                Some(SimMsg::ApplyDay {
                    day: buf.get_u32_le(),
                })
            }
            _ => None,
        }
    }
}

/// Read a batch's record count and check that `buf` holds that many
/// `record_bytes`-sized records (a lying count is rejected, not trusted
/// for an allocation).
fn batch_len(buf: &mut &[u8], record_bytes: usize) -> Option<usize> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32_le() as usize;
    (buf.remaining() >= n.checked_mul(record_bytes)?).then_some(n)
}

/// Reduction slot assignments (see `chare_rt::stats::REDUCTION_SLOTS`).
pub mod slots {
    /// Persons currently infected (dwelling in a non-absorbing state).
    pub const INFECTED_NOW: usize = 0;
    /// Infections applied this day.
    pub const NEW_INFECTIONS: usize = 1;
    /// Visit messages sent this day.
    pub const VISITS_SENT: usize = 2;
    /// Symptomatic persons today.
    pub const SYMPTOMATIC: usize = 3;
    /// Still-susceptible persons.
    pub const SUSCEPTIBLE: usize = 4;
    /// Arrive/depart events processed by locations today.
    pub const EVENTS: usize = 5;
    /// Susceptible×infectious interactions counted today.
    pub const INTERACTIONS: usize = 6;
    /// Infect messages sent today.
    pub const INFECTS_SENT: usize = 7;
    /// Base of the per-location-kind transmission counters: slot
    /// `BY_KIND_BASE + k` counts infect messages computed at locations of
    /// kind `k` (venue attribution of transmissions, before per-person
    /// dedup).
    pub const BY_KIND_BASE: usize = 8;
}

/// The object→chare index maps of the two-level hierarchical data
/// distribution (§II-C), computed once per [`crate::DataDistribution`] and
/// shared immutably by every simulator (and every ensemble member) built
/// from it.
#[derive(Debug, Clone)]
pub struct WorldLayout {
    /// Number of partitions (PM chares are `0..k`, LM chares `k..2k`).
    pub k: u32,
    /// person → PersonManager chare id.
    pub pm_of_person: Vec<u32>,
    /// person → local slot within its PM.
    pub local_of_person: Vec<u32>,
    /// location → LocationManager chare id.
    pub lm_of_location: Vec<u32>,
    /// location → original location id (identity unless splitLoc ran);
    /// the stay-home filter uses it to recognise split home pieces.
    pub orig_of_location: Vec<u32>,
    /// Person ids owned by each partition, in local-slot order.
    pub persons_per_part: Vec<Vec<u32>>,
    /// Every visit in canonical DES order. Locations are ranked partition
    /// by partition, ascending within a partition; an LM's local location
    /// order is its rank order.
    pub schedule: VisitSchedule,
}

impl WorldLayout {
    /// Compute the layout for a distribution.
    pub fn build(dist: &crate::distribution::DataDistribution) -> WorldLayout {
        let k = dist.k;
        let n_people = dist.pop.n_people() as usize;
        let mut pm_of_person = vec![0u32; n_people];
        let mut local_of_person = vec![0u32; n_people];
        let mut persons_per_part: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        let mut locations_per_part: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        for p in 0..n_people {
            let part = dist.person_part[p];
            pm_of_person[p] = part;
            local_of_person[p] = persons_per_part[part as usize].len() as u32;
            persons_per_part[part as usize].push(p as u32);
        }
        for (l, &part) in dist.location_part.iter().enumerate() {
            locations_per_part[part as usize].push(l as u32);
        }
        let lm_of_location = dist.location_part.iter().map(|&part| k + part).collect();
        let schedule = VisitSchedule::build(&dist.pop, &locations_per_part);
        WorldLayout {
            k,
            pm_of_person,
            local_of_person,
            lm_of_location,
            orig_of_location: dist.orig_of_location.clone(),
            persons_per_part,
            schedule,
        }
    }
}

/// Immutable state shared by every manager chare (read-only sharing across
/// threads is one of the SMP-mode benefits the paper lists in §IV-A).
///
/// Copy-on-write: the population, disease model, and index maps are each
/// behind their own `Arc`, so many simulators — e.g. the members of a
/// [`crate::ensemble`] sweep — alias one world instead of deep-copying it.
#[derive(Debug)]
pub struct Shared {
    /// The population (post-splitLoc if applicable).
    pub pop: Arc<Population>,
    /// The disease model.
    pub ptts: Arc<Ptts>,
    /// The object→chare index maps.
    pub layout: Arc<WorldLayout>,
    /// Base transmissibility per minute of contact.
    pub r: f64,
    /// Simulation seed.
    pub seed: u64,
}

/// Shared handle.
pub type SharedRef = Arc<Shared>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_kind_bitmask() {
        let e = DayEffects {
            closed_kinds: DayEffects::from_flags(&[false, false, true, false, true]),
            r_scale: 1.0,
            vaccinations: Vec::new(),
        };
        assert!(!e.is_closed(0));
        assert!(e.is_closed(2));
        assert!(e.is_closed(4));
        assert!(!e.is_closed(7));
        assert!(!e.is_closed(200));
    }

    fn roundtrip(msg: &SimMsg) -> SimMsg {
        let mut buf = BytesMut::with_capacity(64);
        msg.wire_encode(&mut buf);
        let frozen = buf.freeze();
        let mut slice: &[u8] = &frozen;
        let out = SimMsg::wire_decode(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decode consumed everything");
        out
    }

    fn encode(msg: &SimMsg) -> bytes::Bytes {
        let mut buf = BytesMut::with_capacity(64);
        msg.wire_encode(&mut buf);
        buf.freeze()
    }

    fn visit(i: u32) -> VisitMsg {
        VisitMsg {
            slot: 12_345 + i,
            state: StateId((i % 5) as u16),
            sus_scale: 0.625,
        }
    }

    fn infect(i: u32) -> InfectMsg {
        InfectMsg {
            person: 99 + i,
            time_min: (i % 1440) as u16,
            infector: 7 * i,
        }
    }

    fn visits(n: usize) -> SimMsg {
        SimMsg::Visits((0..n as u32).map(visit).collect())
    }

    fn infects(n: usize) -> SimMsg {
        SimMsg::Infects((0..n as u32).map(infect).collect())
    }

    #[test]
    fn wire_codec_roundtrips_every_variant() {
        let begin = SimMsg::BeginDay {
            day: 7,
            effects: DayEffects {
                closed_kinds: 0b0001_0100,
                r_scale: 0.75,
                vaccinations: vec![
                    VaccinationOrder {
                        fraction: 0.25,
                        treatment: TreatmentId(3),
                        efficacy_factor: 0.5,
                    },
                    VaccinationOrder {
                        fraction: 1.0,
                        treatment: TreatmentId(0),
                        efficacy_factor: 0.125,
                    },
                ],
            },
        };
        match roundtrip(&begin) {
            SimMsg::BeginDay { day, effects } => {
                assert_eq!(day, 7);
                assert_eq!(effects.closed_kinds, 0b0001_0100);
                assert_eq!(effects.r_scale, 0.75);
                assert_eq!(effects.vaccinations.len(), 2);
                assert_eq!(effects.vaccinations[0].treatment, TreatmentId(3));
                assert_eq!(effects.vaccinations[1].efficacy_factor, 0.125);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        match roundtrip(&visits(2)) {
            SimMsg::Visits(v) => {
                assert_eq!(v, vec![visit(0), visit(1)]);
                assert_eq!(v[1].slot, 12_346);
                assert_eq!(v[1].sus_scale, 0.625);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        match roundtrip(&SimMsg::ComputeDay {
            day: 3,
            r_eff: 0.0015,
        }) {
            SimMsg::ComputeDay { day, r_eff } => {
                assert_eq!(day, 3);
                assert_eq!(r_eff, 0.0015);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        match roundtrip(&infects(2)) {
            SimMsg::Infects(i) => assert_eq!(i, vec![infect(0), infect(1)]),
            other => panic!("wrong variant: {other:?}"),
        }

        match roundtrip(&SimMsg::ApplyDay { day: 11 }) {
            SimMsg::ApplyDay { day } => assert_eq!(day, 11),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn batches_roundtrip_empty_single_and_full_chunk() {
        for n in [0, 1, BATCH_CHUNK] {
            let bytes = encode(&visits(n));
            assert_eq!(bytes.len(), 5 + VISIT_BYTES * n);
            match roundtrip(&visits(n)) {
                SimMsg::Visits(v) => {
                    assert_eq!(v.len(), n);
                    assert!(v.iter().enumerate().all(|(i, m)| *m == visit(i as u32)));
                }
                other => panic!("wrong variant: {other:?}"),
            }
            let bytes = encode(&infects(n));
            assert_eq!(bytes.len(), 5 + INFECT_BYTES * n);
            match roundtrip(&infects(n)) {
                SimMsg::Infects(v) => {
                    assert_eq!(v.len(), n);
                    assert!(v.iter().enumerate().all(|(i, m)| *m == infect(i as u32)));
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn wire_decode_rejects_garbage() {
        // Unknown tag.
        let mut buf: &[u8] = &[200u8, 0, 0, 0, 0];
        assert!(SimMsg::wire_decode(&mut buf).is_none());
        // Truncated batches: one byte short of the last record, and a
        // count with no bytes for it at all.
        for full in [encode(&visits(3)), encode(&infects(3))] {
            let mut short: &[u8] = &full[..full.len() - 1];
            assert!(SimMsg::wire_decode(&mut short).is_none());
            let mut no_count: &[u8] = &full[..3];
            assert!(SimMsg::wire_decode(&mut no_count).is_none());
        }
        // Empty buffer.
        let mut empty: &[u8] = &[];
        assert!(SimMsg::wire_decode(&mut empty).is_none());
        // BeginDay claiming more vaccination orders than bytes present.
        let mut lying = BytesMut::with_capacity(64);
        lying.put_u8(tag::BEGIN_DAY);
        lying.put_u32_le(1);
        lying.put_u8(0);
        lying.put_f64_le(1.0);
        lying.put_u32_le(1000); // 1000 orders, zero bytes follow
        let lying = lying.freeze();
        let mut slice: &[u8] = &lying;
        assert!(SimMsg::wire_decode(&mut slice).is_none());
        // Batches claiming more records than bytes present.
        for t in [tag::VISITS, tag::INFECTS] {
            for count in [2u32, 1000, u32::MAX] {
                let mut lying = BytesMut::with_capacity(64);
                lying.put_u8(t);
                lying.put_u32_le(count);
                lying.put_slice(&[0u8; 19]); // room for one record at most
                let lying = lying.freeze();
                let mut slice: &[u8] = &lying;
                assert!(
                    SimMsg::wire_decode(&mut slice).is_none(),
                    "tag {t} count {count} must be rejected"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn wire_decode_never_panics(
            tag in 0u8..6,
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
        ) {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&body);
            let mut slice: &[u8] = &bytes;
            let _ = SimMsg::wire_decode(&mut slice);
            let mut raw: &[u8] = &body;
            let _ = SimMsg::wire_decode(&mut raw);
        }
    }

    #[test]
    fn full_chunk_batch_frame_fits_the_default_shm_ring() {
        use chare_rt::aggregator::Envelope;
        use chare_rt::net::shm::{RingProducer, ShmRegion};
        use chare_rt::net::wire::{encode_batch, kind};
        use chare_rt::{ChareId, RuntimeConfig};

        let ring_bytes = RuntimeConfig::net(2, 2).net.shm_ring_bytes;
        let region = ShmRegion::create_heap(2, ring_bytes, 1).expect("heap ring");
        let producer = RingProducer::attach(region, 0, 1).expect("attach");
        let envelope = [Envelope {
            to: ChareId(1),
            msg: visits(BATCH_CHUNK),
        }];
        let payload = encode_batch(0, 0, &envelope);
        assert!(
            5 + payload.len() <= producer.max_frame(),
            "a full visit batch ({} B) must fit one ring frame ({} B)",
            payload.len(),
            producer.max_frame()
        );
        assert!(producer.try_push(kind::BATCH, &payload));
    }

    #[test]
    fn size_bytes_is_the_encoded_length() {
        let order = VaccinationOrder {
            fraction: 0.5,
            treatment: TreatmentId(1),
            efficacy_factor: 0.25,
        };
        let mut msgs = vec![
            SimMsg::ComputeDay {
                day: 9,
                r_eff: 0.002,
            },
            SimMsg::ApplyDay { day: 9 },
        ];
        for n in [0, 1, 3] {
            msgs.push(SimMsg::BeginDay {
                day: 2,
                effects: DayEffects {
                    closed_kinds: 1,
                    r_scale: 0.5,
                    vaccinations: vec![order; n],
                },
            });
        }
        for n in [0, 1, 7, BATCH_CHUNK] {
            msgs.push(visits(n));
            msgs.push(infects(n));
        }
        for msg in &msgs {
            assert_eq!(msg.size_bytes(), encode(msg).len(), "{msg:?}");
        }
        assert_eq!(visits(1).size_bytes(), BATCH_HEADER_BYTES + VISIT_BYTES);
    }
}
