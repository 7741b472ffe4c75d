//! The per-die loop of `wafer_lot` split into search control, ATE
//! bookkeeping and the fold, by differential replay.
//!
//! One lot is replayed single-site through the public per-layer API — a
//! tester session per die, the touchdown's contact strobe, the eq. 2
//! reference search, eq. 3/4 STP walks through `Ate::trip_oracle_prepared`
//! and `SearchUntilTrip::run_in`, and `TripAggregate::observe`. A recording
//! oracle adapter captures every strobe the searches issue. Five passes are
//! then timed whole, each several times:
//!
//! * **full** — the loop as above;
//! * **ate** — the same sessions and contact strobes, with each search's
//!   recorded strobes replayed straight into the oracle (no search code);
//! * **overhead** — the ate pass's own call walking, without a tester;
//! * **sessions** — only the per-die session builds;
//! * **fold** — only the aggregate fold of the recorded entries.
//!
//! With ate′ = ate − overhead, search self time is full − ate′ − fold, ATE
//! self time is ate′ − sessions − DUT (priced by [`DutCosts`]), and the
//! fold is its own pass. The
//! replayed trip points must equal the wafer campaign's for the same dies.

use crate::layers::{counted_nominal_device, nominal_device, DutCosts, DutProbe};
use cichar_ate::{Ate, AteConfig, MeasuredParam, PreparedTest};
use cichar_core::dsv::{QuarantineReason, TripStatus};
use cichar_core::stream::TripAggregate;
use cichar_dut::{Device, Die};
use cichar_exec::derive_seed;
use cichar_patterns::Test;
use cichar_search::{
    BatchOracle, PassFailOracle, Probe, RegionOrder, SearchScratch, SearchSummary, SearchUntilTrip,
    SuccessiveApproximation,
};
use cichar_units::ParamKind;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const PARAM: MeasuredParam = MeasuredParam::DataValidTime;

/// Self times of one replayed lot, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// Search control: bracketing, step and bisection logic.
    pub search_s: f64,
    /// ATE bookkeeping: conditions, noise, ledger, oracle set-up, contact
    /// strobes — everything in the tester but the DUT physics.
    pub ate_s: f64,
    /// The streaming fold.
    pub stream_s: f64,
}

/// One oracle call as a search issued it.
#[derive(Debug, Clone)]
enum OracleCall {
    Probe(f64),
    Batch(Vec<f64>),
    Speculative(Vec<f64>, usize),
}

/// Forwards every call to the wrapped oracle and records it with its
/// verdicts.
struct RecordingOracle<'r, O> {
    inner: O,
    calls: &'r mut Vec<OracleCall>,
    verdicts: &'r mut Vec<Probe>,
}

impl<O: PassFailOracle> PassFailOracle for RecordingOracle<'_, O> {
    fn probe(&mut self, value: f64) -> Probe {
        let verdict = self.inner.probe(value);
        self.calls.push(OracleCall::Probe(value));
        self.verdicts.push(verdict);
        verdict
    }
}

impl<O: BatchOracle> BatchOracle for RecordingOracle<'_, O> {
    fn probe_batch_into(&mut self, values: &[f64], out: &mut Vec<Probe>) {
        let start = out.len();
        self.inner.probe_batch_into(values, out);
        self.calls.push(OracleCall::Batch(values.to_vec()));
        self.verdicts.extend_from_slice(&out[start..]);
    }

    fn probe_batch_speculative_into(
        &mut self,
        values: &[f64],
        first_speculative: usize,
        out: &mut Vec<Probe>,
    ) {
        let start = out.len();
        self.inner
            .probe_batch_speculative_into(values, first_speculative, out);
        self.calls
            .push(OracleCall::Speculative(values.to_vec(), first_speculative));
        self.verdicts.extend_from_slice(&out[start..]);
    }
}

/// What the recording pass captured: per search, its oracle calls and
/// verdicts; per search, the folded entry.
#[derive(Default)]
struct Recording {
    calls: Vec<Vec<OracleCall>>,
    verdicts: Vec<Vec<Probe>>,
    entries: Vec<(Option<f64>, TripStatus)>,
}

/// The lot being replayed and the searches the wafer runner uses.
struct Replay<'t> {
    dies: &'t [Die],
    tests: Vec<PreparedTest<'t>>,
    config: &'t AteConfig,
    full: SuccessiveApproximation,
    stp: SearchUntilTrip,
    contact_forces: Vec<(ParamKind, f64)>,
}

impl<'t> Replay<'t> {
    fn new(dies: &'t [Die], tests: &'t [Test], config: &'t AteConfig) -> Self {
        let range = PARAM.generous_range();
        let edge = match PARAM.region_order() {
            RegionOrder::PassBelowFail => range.start(),
            RegionOrder::PassAboveFail => range.end(),
        };
        let mut contact_forces = PARAM.relax_forces().to_vec();
        contact_forces.push((PARAM.kind(), edge));
        Self {
            dies,
            tests: tests.iter().map(PreparedTest::new).collect(),
            config,
            full: SuccessiveApproximation::new(range, PARAM.resolution()),
            stp: SearchUntilTrip::new(range, PARAM.search_factor())
                .with_refinement(PARAM.resolution()),
            contact_forces,
        }
    }

    /// Die `index`'s session, seeded as the wafer runner seeds it.
    fn session(&self, device: &Device, index: usize) -> Ate {
        Ate::with_config(
            device.for_die(self.dies[index]),
            AteConfig {
                seed: derive_seed(self.config.seed, index as u64),
                ..self.config.clone()
            },
        )
    }

    /// The touchdown's contact-check strobe (one per site).
    fn contact(&self, ate: &mut Ate) {
        let first = &self.tests[0];
        black_box(ate.measure_features(
            first.features(),
            first.pattern_cycles(),
            first.test(),
            &self.contact_forces,
        ));
    }

    fn search<O: BatchOracle>(
        &self,
        rtp: Option<f64>,
        oracle: &mut O,
        scratch: &mut SearchScratch,
    ) -> SearchSummary {
        let order = PARAM.region_order();
        match rtp {
            None => self.full.run_in(order, oracle, scratch),
            Some(r) => self.stp.run_in(r, order, oracle, scratch),
        }
    }

    /// The full per-die loop; records the oracle calls when `record` is
    /// given.
    fn full_pass(&self, device: &Device, mut record: Option<&mut Recording>) {
        let mut aggregate = aggregate();
        let mut scratch = SearchScratch::new();
        for index in 0..self.dies.len() {
            let mut ate = self.session(device, index);
            self.contact(&mut ate);
            let mut rtp: Option<f64> = None;
            for test in &self.tests {
                scratch.trace.clear();
                let forces = std::mem::take(&mut scratch.forces);
                let oracle = ate.trip_oracle_prepared(test, PARAM, forces);
                let summary = match record.as_deref_mut() {
                    Some(rec) => {
                        let (mut calls, mut verdicts) = (Vec::new(), Vec::new());
                        let mut recording = RecordingOracle {
                            inner: oracle,
                            calls: &mut calls,
                            verdicts: &mut verdicts,
                        };
                        let summary = self.search(rtp, &mut recording, &mut scratch);
                        scratch.forces = recording.inner.into_forces();
                        rec.calls.push(calls);
                        rec.verdicts.push(verdicts);
                        summary
                    }
                    None => {
                        let mut oracle = oracle;
                        let summary = self.search(rtp, &mut oracle, &mut scratch);
                        scratch.forces = oracle.into_forces();
                        summary
                    }
                };
                if rtp.is_none() {
                    rtp = summary.trip_point;
                }
                let status = status(&summary, &scratch);
                aggregate.observe(summary.trip_point, &status);
                if let Some(rec) = record.as_deref_mut() {
                    rec.entries.push((summary.trip_point, status));
                }
            }
        }
        black_box(aggregate);
    }

    /// Sessions and contact strobes, with every search's recorded strobes
    /// replayed straight into its oracle; the verdicts land in `verdicts`.
    fn ate_pass(&self, device: &Device, calls: &[Vec<OracleCall>], verdicts: &mut Vec<Probe>) {
        let mut forces = Vec::new();
        let mut search = 0;
        for index in 0..self.dies.len() {
            let mut ate = self.session(device, index);
            self.contact(&mut ate);
            for test in &self.tests {
                let mut oracle = ate.trip_oracle_prepared(test, PARAM, forces);
                for call in &calls[search] {
                    match call {
                        OracleCall::Probe(v) => verdicts.push(oracle.probe(*v)),
                        OracleCall::Batch(vs) => oracle.probe_batch_into(vs, verdicts),
                        OracleCall::Speculative(vs, k) => {
                            oracle.probe_batch_speculative_into(vs, *k, verdicts)
                        }
                    }
                }
                forces = oracle.into_forces();
                search += 1;
            }
        }
    }

    fn sessions_pass(&self, device: &Device) {
        for index in 0..self.dies.len() {
            black_box(self.session(device, index));
        }
    }
}

/// The ate pass's own machinery — walking the recorded calls and storing
/// verdicts — without a tester, so it can be taken back out.
fn replay_overhead(calls: &[Vec<OracleCall>], verdicts: &mut Vec<Probe>) {
    for call in calls.iter().flatten() {
        match call {
            OracleCall::Probe(v) => verdicts.push(verdict_of(*v)),
            OracleCall::Batch(vs) | OracleCall::Speculative(vs, _) => {
                verdicts.extend(vs.iter().map(|v| verdict_of(*v)))
            }
        }
    }
}

/// An opaque stand-in verdict.
fn verdict_of(value: f64) -> Probe {
    if black_box(value) > 0.0 {
        Probe::Pass
    } else {
        Probe::Fail
    }
}

fn aggregate() -> TripAggregate {
    let range = PARAM.generous_range();
    TripAggregate::new(range.start(), range.end(), 256)
}

/// The raw-path classification the wafer runner applies without recovery.
fn status(summary: &SearchSummary, scratch: &SearchScratch) -> TripStatus {
    match summary.trip_point {
        Some(_) => TripStatus::Clean,
        None if scratch.trace.iter().any(|(_, p)| !p.is_valid()) => TripStatus::Quarantined {
            reason: QuarantineReason::Dropout,
        },
        None => TripStatus::Quarantined {
            reason: QuarantineReason::Unconverged,
        },
    }
}

/// Replays one lot and splits its per-die loop. `expected` holds the wafer
/// campaign's trip points by (die id, test index); `costs` prices the DUT
/// calls; each timed pass runs `rounds` times and its cheapest run counts.
pub fn measure(
    dies: &[Die],
    tests: &[Test],
    config: &AteConfig,
    expected: &HashMap<(u32, u32), Option<f64>>,
    costs: &DutCosts,
    rounds: usize,
) -> Result<Split, String> {
    let replay = Replay::new(dies, tests, config);
    let device = nominal_device();

    let mut rec = Recording::default();
    replay.full_pass(&device, Some(&mut rec));
    for (k, (trip, _)) in rec.entries.iter().enumerate() {
        let die = dies[k / tests.len()].id();
        let want = expected
            .get(&(die, (k % tests.len()) as u32))
            .ok_or("the wafer campaign lacks a replayed entry")?;
        if want.map(f64::to_bits) != trip.map(f64::to_bits) {
            return Err(format!(
                "replay of die {die} test {} found {trip:?}, the wafer campaign {want:?}",
                k % tests.len()
            ));
        }
    }
    let probe = DutProbe::counting();
    let mut verdicts = Vec::new();
    replay.ate_pass(
        &counted_nominal_device(probe.clone()),
        &rec.calls,
        &mut verdicts,
    );
    if verdicts != rec.verdicts.concat() {
        return Err(String::from("strobe replay changed a verdict"));
    }
    let dut_s = costs.seconds(&probe.tally());

    let verdicts_buffer = std::cell::RefCell::new(verdicts);
    let mut best = [f64::INFINITY; 5];
    for _ in 0..rounds {
        let timed: [&dyn Fn(); 5] = [
            &|| replay.full_pass(&device, None),
            &|| {
                let mut verdicts = verdicts_buffer.borrow_mut();
                verdicts.clear();
                replay.ate_pass(&device, &rec.calls, &mut verdicts);
            },
            &|| {
                let mut verdicts = verdicts_buffer.borrow_mut();
                verdicts.clear();
                replay_overhead(&rec.calls, &mut verdicts);
            },
            &|| replay.sessions_pass(&device),
            &|| {
                let mut a = aggregate();
                for (trip, status) in &rec.entries {
                    a.observe(*trip, status);
                }
                black_box(a);
            },
        ];
        for (pass, slot) in timed.iter().zip(best.iter_mut()) {
            let started = Instant::now();
            pass();
            *slot = slot.min(started.elapsed().as_secs_f64());
        }
    }
    let [full, ate, overhead, sessions, fold] = best;
    let ate = ate - overhead;
    Ok(Split {
        search_s: full - ate - fold,
        ate_s: ate - sessions - dut_s,
        stream_s: fold,
    })
}
