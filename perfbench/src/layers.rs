//! Outside-in layer measurement around the public seams of the DUT crate.
//!
//! A DUT call costs 10–60 ns, about what one pair of clock reads costs on a
//! virtual machine, so timing every call would mostly measure the clock.
//! Instead a delegating [`CountingBackend`] counts every call by kind (and
//! can log them), and [`DutCosts::measure`] re-executes a logged call
//! stream in bulk — one clock pair per pass — to price each kind. A
//! layer's self time is then its counts times its per-call costs. Nothing
//! here changes a verdict: every call delegates, so a counted campaign must
//! produce the same result fingerprint as a plain one (the benchmark
//! checks).

use cichar_dut::{
    Device, DeviceBackend, Die, EvalPlan, FunctionalOutcome, MemoryDevice, Parametrics,
    PreparedEvaluator, ProcessCorner,
};
use cichar_patterns::{Pattern, PatternFeatures, TestConditions};
use std::fmt;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The kinds of DUT call, each priced separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `stress_total` — the pattern's stress breakdown.
    Stress = 0,
    /// `evaluate_with_stress` — scalar physics with a hoisted stress total.
    Eval = 1,
    /// `evaluate_features` — scalar physics from pattern features.
    Features = 2,
    /// One element of `evaluate_batch(_into)`.
    BatchElement = 3,
    /// `prepare` — building a plan.
    Prepare = 4,
    /// `PreparedEvaluator::evaluate_with_stress` — plan physics.
    Plan = 5,
}

const KINDS: [Kind; 6] = [
    Kind::Stress,
    Kind::Eval,
    Kind::Features,
    Kind::BatchElement,
    Kind::Prepare,
    Kind::Plan,
];

/// Calls per kind, plus functional pattern executions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DutTally {
    /// Calls by [`Kind`].
    pub calls: [u64; 6],
    /// Functional pattern executions.
    pub functional_execs: u64,
    /// Host nanoseconds inside functional execution (long enough calls to
    /// time one by one).
    pub functional_ns: u64,
}

impl DutTally {
    /// Parametric evaluations of every path.
    pub fn evals(&self) -> u64 {
        self.calls[Kind::Eval as usize]
            + self.calls[Kind::Features as usize]
            + self.calls[Kind::BatchElement as usize]
            + self.calls[Kind::Plan as usize]
    }

    /// Plans built.
    pub fn plans_built(&self) -> u64 {
        self.calls[Kind::Prepare as usize]
    }

    /// Evaluations served by a plan.
    pub fn plan_evals(&self) -> u64 {
        self.calls[Kind::Plan as usize]
    }

    /// The calls made since `earlier`.
    pub fn since(&self, earlier: &DutTally) -> DutTally {
        let mut calls = [0; 6];
        for (i, c) in calls.iter_mut().enumerate() {
            *c = self.calls[i] - earlier.calls[i];
        }
        DutTally {
            calls,
            functional_execs: self.functional_execs - earlier.functional_execs,
            functional_ns: self.functional_ns - earlier.functional_ns,
        }
    }
}

/// One logged DUT call; backends and features are indices into the log.
#[derive(Debug, Clone)]
enum Call {
    Stress {
        backend: u32,
        features: u32,
    },
    Eval {
        backend: u32,
        stress: f64,
        conditions: TestConditions,
    },
    Features {
        backend: u32,
        features: u32,
        conditions: TestConditions,
    },
    Batch {
        backend: u32,
        features: u32,
        conditions: Vec<TestConditions>,
    },
    Prepare {
        backend: u32,
        conditions: TestConditions,
    },
    Plan {
        plan: u32,
        stress: f64,
    },
}

/// A bounded log of DUT calls with the dies and features they name.
#[derive(Debug, Default)]
pub struct DutLog {
    dies: Vec<Die>,
    features: Vec<PatternFeatures>,
    calls: Vec<Call>,
    plans: u32,
    cap: usize,
}

impl DutLog {
    fn features(&mut self, f: &PatternFeatures) -> u32 {
        if self.features.last() != Some(f) {
            self.features.push(*f);
        }
        (self.features.len() - 1) as u32
    }
}

/// Counters (and an optional call log) shared by every backend and plan
/// of one campaign. Counters are plain statistics, so `Relaxed` suffices.
#[derive(Default)]
pub struct DutProbe {
    calls: [AtomicU64; 6],
    functional_execs: AtomicU64,
    functional_ns: AtomicU64,
    log: Option<Mutex<DutLog>>,
}

impl DutProbe {
    /// A probe that only counts.
    pub fn counting() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A probe that also logs the first `cap` calls.
    pub fn logging(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            log: Some(Mutex::new(DutLog {
                cap,
                ..DutLog::default()
            })),
            ..Self::default()
        })
    }

    /// The counts so far.
    pub fn tally(&self) -> DutTally {
        let mut calls = [0; 6];
        for (c, a) in calls.iter_mut().zip(&self.calls) {
            *c = a.load(Ordering::Relaxed);
        }
        DutTally {
            calls,
            functional_execs: self.functional_execs.load(Ordering::Relaxed),
            functional_ns: self.functional_ns.load(Ordering::Relaxed),
        }
    }

    /// Takes the call log (empty for a counting probe).
    pub fn take_log(&self) -> DutLog {
        self.log
            .as_ref()
            .map(|l| std::mem::take(&mut *l.lock().expect("log lock poisoned")))
            .unwrap_or_default()
    }

    fn count(&self, kind: Kind, n: u64) {
        self.calls[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn log(&self, f: impl FnOnce(&mut DutLog) -> Option<Call>) {
        if let Some(log) = &self.log {
            let mut log = log.lock().expect("log lock poisoned");
            if log.calls.len() < log.cap {
                if let Some(call) = f(&mut log) {
                    log.calls.push(call);
                }
            }
        }
    }

    fn register(&self, die: Die) -> u32 {
        match &self.log {
            Some(log) => {
                let mut log = log.lock().expect("log lock poisoned");
                log.dies.push(die);
                (log.dies.len() - 1) as u32
            }
            None => 0,
        }
    }
}

/// A delegating [`DeviceBackend`] that counts (and optionally logs) every
/// call into the wrapped backend. Identity (`name`, `params`,
/// `structural_key`) delegates, and `for_die` re-wraps the inner backend's
/// die copy, so plan routing, the multi-site stress hoist and the journal
/// fingerprint are unchanged.
pub struct CountingBackend {
    inner: Box<dyn DeviceBackend>,
    probe: Arc<DutProbe>,
    id: u32,
}

impl fmt::Debug for CountingBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl CountingBackend {
    fn count_batch(&self, features: &PatternFeatures, conditions: &[TestConditions]) {
        self.probe
            .count(Kind::BatchElement, conditions.len() as u64);
        self.probe.log(|log| {
            Some(Call::Batch {
                backend: self.id,
                features: log.features(features),
                conditions: conditions.to_vec(),
            })
        });
    }
}

/// The nominal `memory` device every workload characterizes.
pub fn nominal_device() -> Device {
    MemoryDevice::nominal().into()
}

/// [`nominal_device`] behind the counting wrapper.
pub fn counted_nominal_device(probe: Arc<DutProbe>) -> Device {
    let inner: Box<dyn DeviceBackend> = Box::new(MemoryDevice::nominal());
    let id = probe.register(*inner.die());
    Device::from_backend(Box::new(CountingBackend { inner, probe, id }))
}

impl DeviceBackend for CountingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> Vec<(&'static str, f64)> {
        self.inner.params()
    }

    fn stress_axes(&self) -> &'static [&'static str] {
        self.inner.stress_axes()
    }

    fn die(&self) -> &Die {
        self.inner.die()
    }

    fn structural_key(&self) -> u64 {
        self.inner.structural_key()
    }

    fn for_die(&self, die: Die) -> Box<dyn DeviceBackend> {
        Box::new(CountingBackend {
            inner: self.inner.for_die(die),
            probe: self.probe.clone(),
            id: self.probe.register(die),
        })
    }

    fn stress_total(&self, features: &PatternFeatures) -> f64 {
        self.probe.count(Kind::Stress, 1);
        self.probe.log(|log| {
            Some(Call::Stress {
                backend: self.id,
                features: log.features(features),
            })
        });
        self.inner.stress_total(features)
    }

    fn evaluate_with_stress(&self, stress_total: f64, conditions: &TestConditions) -> Parametrics {
        self.probe.count(Kind::Eval, 1);
        self.probe.log(|_| {
            Some(Call::Eval {
                backend: self.id,
                stress: stress_total,
                conditions: *conditions,
            })
        });
        self.inner.evaluate_with_stress(stress_total, conditions)
    }

    fn evaluate_features(
        &self,
        features: &PatternFeatures,
        conditions: &TestConditions,
    ) -> Parametrics {
        self.probe.count(Kind::Features, 1);
        self.probe.log(|log| {
            Some(Call::Features {
                backend: self.id,
                features: log.features(features),
                conditions: *conditions,
            })
        });
        self.inner.evaluate_features(features, conditions)
    }

    fn evaluate_batch(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
    ) -> Vec<Parametrics> {
        self.count_batch(features, conditions);
        self.inner.evaluate_batch(features, conditions)
    }

    fn evaluate_batch_into(
        &self,
        features: &PatternFeatures,
        conditions: &[TestConditions],
        out: &mut Vec<Parametrics>,
    ) {
        self.count_batch(features, conditions);
        self.inner.evaluate_batch_into(features, conditions, out);
    }

    fn prepare(&self, conditions: &TestConditions) -> EvalPlan {
        self.probe.count(Kind::Prepare, 1);
        let mut plan = None;
        self.probe.log(|log| {
            plan = Some(log.plans);
            log.plans += 1;
            Some(Call::Prepare {
                backend: self.id,
                conditions: *conditions,
            })
        });
        Box::new(CountingPlan {
            inner: self.inner.prepare(conditions),
            probe: self.probe.clone(),
            plan,
        })
    }

    fn execute_pattern(&self, pattern: &Pattern) -> FunctionalOutcome {
        let started = Instant::now();
        let outcome = self.inner.execute_pattern(pattern);
        let ns = started.elapsed().as_nanos() as u64;
        self.probe.functional_ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.functional_execs.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    fn sample_die(&self, lot_seed: u64, index: u32) -> Die {
        self.inner.sample_die(lot_seed, index)
    }

    fn corner_die(&self, corner: ProcessCorner) -> Die {
        self.inner.corner_die(corner)
    }
}

/// A counted plan, handed out by [`CountingBackend::prepare`]. `plan` is
/// its index in the call log, when its `prepare` was logged.
struct CountingPlan {
    inner: EvalPlan,
    probe: Arc<DutProbe>,
    plan: Option<u32>,
}

impl fmt::Debug for CountingPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl PreparedEvaluator for CountingPlan {
    fn conditions(&self) -> &TestConditions {
        self.inner.conditions()
    }

    fn evaluate_with_stress(&self, stress_total: f64) -> Parametrics {
        self.probe.count(Kind::Plan, 1);
        self.probe.log(|_| {
            self.plan.map(|plan| Call::Plan {
                plan,
                stress: stress_total,
            })
        });
        self.inner.evaluate_with_stress(stress_total)
    }
}

/// Host nanoseconds per DUT call of each kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct DutCosts {
    ns: [f64; 6],
}

impl DutCosts {
    /// Prices each kind by re-executing the logged calls of that kind
    /// against fresh `memory` backends, `rounds` times, one clock pair per
    /// pass; the cheapest pass is the estimate (other tenants only add
    /// time).
    pub fn measure(log: &DutLog, rounds: usize) -> Self {
        let proto = MemoryDevice::nominal();
        let backends: Vec<Box<dyn DeviceBackend>> =
            log.dies.iter().map(|d| proto.for_die(*d)).collect();
        let plans: Vec<EvalPlan> = log
            .calls
            .iter()
            .filter_map(|c| match c {
                Call::Prepare {
                    backend,
                    conditions,
                } => Some(backends[*backend as usize].prepare(conditions)),
                _ => None,
            })
            .collect();
        let mut ns = [0.0; 6];
        for kind in KINDS {
            let mut n = 0u64;
            let mut best = f64::INFINITY;
            for _ in 0..rounds {
                n = 0;
                let started = Instant::now();
                for call in &log.calls {
                    n += Self::execute(call, kind, &backends, &plans, &log.features);
                }
                best = best.min(started.elapsed().as_nanos() as f64);
            }
            if n > 0 {
                ns[kind as usize] = best / n as f64;
            }
        }
        Self { ns }
    }

    /// Executes `call` if it is of `kind`; returns the calls it stands for.
    fn execute(
        call: &Call,
        kind: Kind,
        backends: &[Box<dyn DeviceBackend>],
        plans: &[EvalPlan],
        features: &[PatternFeatures],
    ) -> u64 {
        match (call, kind) {
            (
                Call::Stress {
                    backend,
                    features: f,
                },
                Kind::Stress,
            ) => {
                black_box(backends[*backend as usize].stress_total(&features[*f as usize]));
                1
            }
            (
                Call::Eval {
                    backend,
                    stress,
                    conditions,
                },
                Kind::Eval,
            ) => {
                black_box(backends[*backend as usize].evaluate_with_stress(*stress, conditions));
                1
            }
            (
                Call::Features {
                    backend,
                    features: f,
                    conditions,
                },
                Kind::Features,
            ) => {
                black_box(
                    backends[*backend as usize]
                        .evaluate_features(&features[*f as usize], conditions),
                );
                1
            }
            (
                Call::Batch {
                    backend,
                    features: f,
                    conditions,
                },
                Kind::BatchElement,
            ) => {
                black_box(
                    backends[*backend as usize].evaluate_batch(&features[*f as usize], conditions),
                );
                conditions.len() as u64
            }
            (
                Call::Prepare {
                    backend,
                    conditions,
                },
                Kind::Prepare,
            ) => {
                black_box(backends[*backend as usize].prepare(conditions));
                1
            }
            (Call::Plan { plan, stress }, Kind::Plan) => {
                black_box(plans[*plan as usize].evaluate_with_stress(*stress));
                1
            }
            _ => 0,
        }
    }

    /// The DUT self time of `tally`'s calls, in seconds.
    pub fn seconds(&self, tally: &DutTally) -> f64 {
        KINDS
            .iter()
            .map(|k| tally.calls[*k as usize] as f64 * self.ns[*k as usize])
            .sum::<f64>()
            * 1e-9
            + tally.functional_ns as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cichar_ate::{Ate, MeasuredParam};
    use cichar_patterns::{march, Test};

    #[test]
    fn counting_backend_is_transparent_and_counts() {
        let test = Test::deterministic("march_x", march::march_x(96));
        let probe = DutProbe::logging(1 << 16);
        let plain = Ate::new(nominal_device()).measure(&test, MeasuredParam::DataValidTime, 20.0);
        let counted = Ate::new(counted_nominal_device(probe.clone())).measure(
            &test,
            MeasuredParam::DataValidTime,
            20.0,
        );
        assert_eq!(plain, counted);
        let tally = probe.tally();
        assert_eq!(tally.evals(), 1);
        let log = probe.take_log();
        assert_eq!(log.calls.len(), 1);
        let costs = DutCosts::measure(&log, 3);
        assert!(costs.seconds(&tally) > 0.0);
    }
}
