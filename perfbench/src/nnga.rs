//! `nnga_hunt`: the Table 1 NN+GA row at `Scale::Full`'s comparison
//! configuration, called as its three stages — `LearningScheme::run`,
//! `NeuralTestGenerator::propose`, `OptimizationScheme::run_parallel`.
//!
//! One campaign is [`HUNTS`] independent hunts at seeds derived from the
//! workload seed, pooled so that the deterministic figures stay comparable
//! across seeds. The timed loop runs the campaign's hunts one at a time,
//! in turn, each cold; host times are taken per hunt.

use crate::layers::{counted_nominal_device, nominal_device, DutCosts, DutProbe, DutTally};
use crate::report::{median, peak_rss_mb, percentile, print_samples, set_dut, Metrics};
use crate::{closed_loop, expect_fingerprint, fingerprint, pace, truth, Args, Outcome, SetupTimer};
use cichar_ate::{Ate, AteConfig, MeasurementLedger, ParallelAte, PreparedTest};
use cichar_bench::Scale;
use cichar_core::compare::CompareConfig;
use cichar_core::generator::NeuralTestGenerator;
use cichar_core::learning::{LearnedModel, LearningScheme};
use cichar_core::optimization::{OptimizationOutcome, OptimizationScheme};
use cichar_dut::Device;
use cichar_exec::{derive_seed, ExecPolicy};
use cichar_trace::{NullSink, TimedTracer, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Hunts per campaign. One hunt's training cost swings by ±30 % from seed
/// to seed (its committee stops early), so a campaign pools several.
const HUNTS: usize = 8;
/// Hunts re-run at two worker threads after the timed loop, once for the
/// fingerprint check and once with large databases for the accuracy
/// sample.
const CHECK_HUNTS: usize = 4;
/// Campaign set-up samples per timed hunt: a set-up is sub-microsecond
/// and a run holds only about twenty hunts.
const SETUP_SAMPLES_PER_HUNT: usize = 2;
const SALT_RNG: u64 = 1;
const SALT_ATE: u64 = 2;
const SALT_TRUTH: u64 = 3;
/// Database entries checked against ground truth, per hunt.
const TRUTH_SAMPLE: usize = 1000;
/// Database capacity of the accuracy campaign, large enough to keep a
/// p99's worth of the hunt's measured trip points. The database never
/// steers the GA, but it forgets evicted tests, so a re-evaluated test can
/// land in one capacity's database and not another's; the accuracy
/// campaign is therefore not fingerprint-checked.
const VERIFY_DATABASE: usize = 4096;
/// DUT calls logged to price each call kind.
const DUT_LOG_CALLS: usize = 1 << 18;
/// Repetitions of the bulk-timed DUT replay.
const REPLAY_ROUNDS: usize = 7;

fn compare_config(smoke: bool) -> CompareConfig {
    if smoke {
        Scale::Quick.compare_config()
    } else {
        Scale::Full.compare_config()
    }
}

fn hunts(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        HUNTS
    }
}

/// One hunt's host seconds, per stage.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    learning_s: f64,
    /// The program's own per-test search spans inside `learning_s`
    /// (traced campaigns only).
    learning_spans_s: f64,
    propose_s: f64,
    optimization_s: f64,
}

impl Stages {
    fn hunt_s(&self) -> f64 {
        self.learning_s + self.propose_s + self.optimization_s
    }
}

/// One hunt's products.
struct Hunt {
    model: LearnedModel,
    optimization: OptimizationOutcome,
    learning_ledger: MeasurementLedger,
    ga_ledger: MeasurementLedger,
}

impl Hunt {
    /// The hunt's Table 1 NN+GA row plus its best test, rendered exactly.
    fn render(&self, config: &CompareConfig) -> String {
        let best = &self.optimization.best;
        format!(
            "{}|{:?}|{:?}|{:x}|{:?}|{}|{:?}|{:?};",
            best.test.name(),
            best.test.conditions(),
            best.trip_point,
            best.test.pattern().content_hash(),
            config.objective.wcr(best.trip_point),
            self.measurements(),
            self.learning_ledger,
            self.ga_ledger
        )
    }

    fn check(&self) -> Result<(), String> {
        if !self.optimization.best.trip_point.is_finite() || self.optimization.ga.evaluations == 0 {
            return Err(String::from("a hunt produced no measured worst case"));
        }
        if self.model.measurements_used != self.learning_ledger.measurements() {
            return Err(String::from(
                "learning ledger disagrees with the model's cost",
            ));
        }
        Ok(())
    }

    /// ATE measurements of the NN+GA row (learning plus GA).
    fn measurements(&self) -> u64 {
        self.learning_ledger.measurements() + self.ga_ledger.measurements()
    }

    /// Trip-point searches: every learning test plus every GA evaluation.
    fn searches(&self, config: &CompareConfig) -> u64 {
        (self.model.rounds * config.learning.tests_per_round + self.optimization.ga.evaluations)
            as u64
    }
}

#[derive(Default)]
struct Campaign {
    /// Host seconds of each hunt, in hunt order.
    stages: Vec<Stages>,
    hunts: Vec<Hunt>,
    /// DUT calls of the GA stages alone (counted campaigns only).
    ga_dut: DutTally,
}

impl Campaign {
    fn push(&mut self, stages: Stages, hunt: Hunt, ga_dut: &DutTally) {
        for (total, n) in self.ga_dut.calls.iter_mut().zip(ga_dut.calls) {
            *total += n;
        }
        self.stages.push(stages);
        self.hunts.push(hunt);
    }

    /// Every hunt's Table 1 NN+GA row plus its best test.
    fn fingerprint(&self, config: &CompareConfig) -> u64 {
        let rendered: String = self.hunts.iter().map(|h| h.render(config)).collect();
        fingerprint(&rendered)
    }

    fn sum(&self, f: impl Fn(&Hunt) -> u64) -> u64 {
        self.hunts.iter().map(f).sum()
    }

    /// The mean of `f` over the campaign's hunts.
    fn per_hunt(&self, f: impl Fn(&Hunt) -> u64) -> f64 {
        self.sum(f) as f64 / self.hunts.len() as f64
    }

    fn ledger(&self) -> MeasurementLedger {
        let mut merged = MeasurementLedger::new();
        for h in &self.hunts {
            merged.merge(&h.learning_ledger);
            merged.merge(&h.ga_ledger);
        }
        merged
    }
}

/// One hunt ready to run: its RNG, tester session and the two schemes.
type Prepared = (StdRng, Ate, LearningScheme, OptimizationScheme);

/// Hunt `h` of the campaign at `seed`: its RNG, tester and schemes.
fn prepare_hunt(seed: u64, h: usize, config: &CompareConfig, device: &Device) -> Prepared {
    let hunt_seed = derive_seed(seed, h as u64);
    let rng = StdRng::seed_from_u64(derive_seed(hunt_seed, SALT_RNG));
    let ate = Ate::with_config(
        device.clone(),
        AteConfig {
            seed: derive_seed(hunt_seed, SALT_ATE),
            ..AteConfig::default()
        },
    );
    let learning = LearningScheme::new(config.learning.clone());
    let optimizer = OptimizationScheme::new(config.optimization.clone());
    (rng, ate, learning, optimizer)
}

/// A campaign's set-up: every hunt's RNG, tester and schemes.
fn prepare(seed: u64, smoke: bool, config: &CompareConfig, device: &Device) -> Vec<Prepared> {
    (0..hunts(smoke))
        .map(|h| prepare_hunt(seed, h, config, device))
        .collect()
}

/// Runs one prepared hunt. `timed` receives the learning stage's per-test
/// spans and `dut` is the DUT probe's counters (both only when traced).
/// Returns the hunt's stage times, its products and its GA stage's DUT
/// calls (counted hunts only).
fn run_hunt(
    prepared: Prepared,
    config: &CompareConfig,
    policy: ExecPolicy,
    timed: Option<&TimedTracer>,
    dut: Option<&DutProbe>,
) -> (Stages, Hunt, DutTally) {
    let dut_now = || dut.map(DutProbe::tally).unwrap_or_default();
    let spans_s = || timed.map_or(0.0, |t| t.timing_snapshot().total_ns() as f64 * 1e-9);
    let disabled = Tracer::disabled();
    let learning_tracer = timed.map_or(&disabled, TimedTracer::tracer);
    let (mut rng, mut ate, learning, optimizer) = prepared;

    let spans_before = spans_s();
    let begin = Instant::now();
    let model = learning.run_traced(&mut ate, &mut rng, learning_tracer);
    let learned = Instant::now();
    let learning_spans_s = spans_s() - spans_before;
    let seeds = NeuralTestGenerator::new(&model).propose(
        config.nn_candidates,
        config.nn_seeds,
        Some(config.conditions),
        &mut rng,
    );
    let proposed = Instant::now();
    let before = dut_now();
    let blueprint = ParallelAte::from_ate(&ate);
    let (optimization, ga_ledger) = optimizer.run_parallel(
        &blueprint,
        &seeds,
        Some(model.reference_trip_point),
        policy,
        &mut rng,
    );
    let done = Instant::now();
    let stages = Stages {
        learning_s: (learned - begin).as_secs_f64(),
        learning_spans_s,
        propose_s: (proposed - learned).as_secs_f64(),
        optimization_s: (done - proposed).as_secs_f64(),
    };
    let hunt = Hunt {
        model,
        optimization,
        learning_ledger: *ate.ledger(),
        ga_ledger,
    };
    (stages, hunt, dut_now().since(&before))
}

/// The first `hunts` hunts of the campaign at `seed`, each cold.
fn campaign(
    seed: u64,
    hunts: usize,
    config: &CompareConfig,
    device: &Device,
    policy: ExecPolicy,
    timed: Option<&TimedTracer>,
    dut: Option<&DutProbe>,
) -> Campaign {
    let mut c = Campaign::default();
    for h in 0..hunts {
        let (stages, hunt, ga_dut) = run_hunt(
            prepare_hunt(seed, h, config, device),
            config,
            policy,
            timed,
            dut,
        );
        c.push(stages, hunt, &ga_dut);
    }
    c
}

fn check(c: &Campaign) -> Result<(), String> {
    c.hunts.iter().try_for_each(Hunt::check)
}

/// |measured − truth| over a seed-chosen sample of every hunt's
/// worst-case database entries.
fn trip_errors(seed: u64, c: &Campaign, config: &CompareConfig) -> Result<Vec<f64>, String> {
    let device = nominal_device();
    let mut errors = Vec::new();
    for (h, hunt) in c.hunts.iter().enumerate() {
        let entries = hunt.optimization.database.entries();
        let sample_seed = derive_seed(derive_seed(seed, SALT_TRUTH), h as u64);
        for i in truth::sample_indices(entries.len(), TRUTH_SAMPLE, sample_seed) {
            let e = &entries[i];
            if let Some(t) = truth::trip_point(&device, &PreparedTest::new(&e.test), config.param) {
                errors.push((e.trip_point - t).abs());
            }
        }
    }
    if errors.is_empty() {
        return Err(String::from(
            "no database entry has a ground-truth trip point",
        ));
    }
    Ok(errors)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = compare_config(args.smoke);
    if args.trace {
        return traced(args, &config);
    }
    let device = nominal_device();
    let n = hunts(args.smoke);
    // The first run of every hunt, each hunt's fingerprint, and the host
    // seconds of every hunt run in loop order.
    let mut first = Campaign::default();
    let mut hunt_fps = Vec::with_capacity(n);
    let mut host_hunt_s = Vec::new();
    let setup_timer = SetupTimer::new(|| Ok(prepare(args.seed, args.smoke, &config, &device)))?;
    let mut host_setup = Vec::new();
    let paces = closed_loop(args.seconds, n, |i| {
        for _ in 0..SETUP_SAMPLES_PER_HUNT {
            setup_timer.sample(&mut host_setup, || {
                Ok(prepare(args.seed, args.smoke, &config, &device))
            })?;
        }
        let h = i % n;
        let (stages, hunt, ga_dut) = run_hunt(
            prepare_hunt(args.seed, h, &config, &device),
            &config,
            ExecPolicy::serial(),
            None,
            None,
        );
        hunt.check()?;
        host_hunt_s.push(stages.hunt_s());
        let fp = fingerprint(&hunt.render(&config));
        if i < n {
            hunt_fps.push(fp);
            first.push(stages, hunt, &ga_dut);
            Ok(())
        } else {
            expect_fingerprint(&format!("repeat of hunt {h}"), hunt_fps[h], fp)
        }
    })?;
    // Outside the timed loop: the 2-worker-thread check, then the
    // accuracy campaign with large databases.
    let two_threads = ExecPolicy::with_threads(2);
    let verify = campaign(
        args.seed,
        CHECK_HUNTS.min(n),
        &config,
        &device,
        two_threads,
        None,
        None,
    );
    for (h, hunt) in verify.hunts.iter().enumerate() {
        expect_fingerprint(
            &format!("hunt {h} at 2 threads"),
            hunt_fps[h],
            fingerprint(&hunt.render(&config)),
        )?;
    }
    let mut sample_config = config.clone();
    sample_config.optimization.database_capacity = VERIFY_DATABASE;
    let sampled = campaign(
        args.seed,
        CHECK_HUNTS.min(n),
        &sample_config,
        &device,
        two_threads,
        None,
        None,
    );
    let errors = trip_errors(args.seed, &sampled, &config)?;
    println!(
        "fingerprint={:016x} hunts_run={} hunts={n} truth_samples={}",
        first.fingerprint(&config),
        paces.len(),
        errors.len()
    );
    let all_hunt_s = pace::normalize(&host_hunt_s, &paces);
    let setup = pace::normalize(&host_setup, &paces);
    print_samples("pace", &paces);
    print_samples("hunt_s", &all_hunt_s);
    print_samples("setup_s", &setup);
    let mut hunt_s = vec![Vec::new(); n];
    for (i, s) in all_hunt_s.into_iter().enumerate() {
        hunt_s[i % n].push(s);
    }

    let searches = first.sum(|h| h.searches(&config)) as f64;
    let ledger = first.ledger();
    // Each hunt's median over its runs, averaged over the campaign's
    // hunts: the hunts differ in work, and every one weighs the same.
    let run_s = hunt_s.iter().map(|s| median(s)).sum::<f64>() / n as f64;
    let mean_wcr = first
        .hunts
        .iter()
        .map(|h| config.objective.wcr(h.optimization.best.trip_point))
        .sum::<f64>()
        / n as f64;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup));
    m.set("run_s", run_s);
    m.set(
        "trips_per_s",
        first.per_hunt(|h| h.searches(&config)) / run_s,
    );
    m.set(
        "probes_per_trip",
        ledger.non_speculative_measurements() as f64 / searches,
    );
    m.set("sim_ms_per_trip", ledger.test_time_ms() / searches);
    m.set(
        "trusted_share",
        1.0 - ledger.quarantined() as f64 / searches,
    );
    m.set("trip_err_p99_ns", percentile(&errors, 0.99));
    m.set("best_wcr", mean_wcr);
    m.set("ate_measurements", first.per_hunt(Hunt::measurements));
    m.set("peak_rss_mb", peak_rss_mb()?);
    Ok(Outcome {
        metrics: m,
        attempted: (paces.len() + verify.hunts.len() + sampled.hunts.len()) as u64,
    })
}

fn traced(args: &Args, config: &CompareConfig) -> Result<Outcome, String> {
    let mut untraced: Vec<Stages> = Vec::new();
    let mut traced_stages: Vec<Stages> = Vec::new();
    let mut reference_fp: Option<u64> = None;
    let mut last: Option<(Campaign, DutTally)> = None;
    let rounds = closed_loop(args.seconds, 2, |round| {
        for k in 0..2 {
            let traced = (round + k) % 2 == 1;
            let probe = DutProbe::counting();
            let timed = TimedTracer::new(Arc::new(NullSink));
            timed.phase("learning");
            let c = if traced {
                campaign(
                    args.seed,
                    hunts(args.smoke),
                    config,
                    &counted_nominal_device(probe.clone()),
                    ExecPolicy::serial(),
                    Some(&timed),
                    Some(&probe),
                )
            } else {
                campaign(
                    args.seed,
                    hunts(args.smoke),
                    config,
                    &nominal_device(),
                    ExecPolicy::serial(),
                    None,
                    None,
                )
            };
            check(&c)?;
            let fp = c.fingerprint(config);
            match reference_fp {
                Some(want) => {
                    expect_fingerprint(if traced { "traced" } else { "untraced" }, want, fp)?
                }
                None => reference_fp = Some(fp),
            }
            if traced {
                traced_stages.extend_from_slice(&c.stages);
                last = Some((c, probe.tally()));
            } else {
                untraced.extend_from_slice(&c.stages);
            }
        }
        Ok(())
    })?
    .len();
    let reference_fp = reference_fp.expect("closed loop ran");
    let (c, tally) = last.expect("closed loop ran a traced campaign");

    // Price the DUT calls from a logged campaign (outside the timed loop).
    let probe = DutProbe::logging(DUT_LOG_CALLS);
    let logged = campaign(
        args.seed,
        hunts(args.smoke),
        config,
        &counted_nominal_device(probe.clone()),
        ExecPolicy::serial(),
        None,
        None,
    );
    expect_fingerprint("logged campaign", reference_fp, logged.fingerprint(config))?;
    let costs = DutCosts::measure(&probe.take_log(), REPLAY_ROUNDS);
    let stage = |stages: &[Stages], f: fn(&Stages) -> f64| {
        median(&stages.iter().map(f).collect::<Vec<_>>())
    };
    let traced_run = stage(&traced_stages, Stages::hunt_s);
    let untraced_run = stage(&untraced, Stages::hunt_s);
    let evaluations = c.sum(|h| h.optimization.ga.evaluations as u64);
    let ga_measurements = c.sum(|h| h.ga_ledger.measurements());
    let mut m = Metrics::default();
    m.set("trace.run_s", traced_run);
    m.set("trace.untraced_run_s", untraced_run);
    m.set(
        "trace.overhead_pct",
        (traced_run / untraced_run - 1.0) * 100.0,
    );
    set_dut(&mut m, &tally, costs.seconds(&tally));
    m.set("ate.measurements", c.ledger().measurements() as f64);
    m.set("search.trips", c.sum(|h| h.searches(config)) as f64);
    m.set("search.quarantined", c.ledger().quarantined() as f64);
    m.set("learning.s", stage(&untraced, |s| s.learning_s));
    m.set(
        "learning.measurements",
        c.sum(|h| h.model.measurements_used) as f64,
    );
    m.set("learning.rounds", c.sum(|h| h.model.rounds as u64) as f64);
    // Learning minus the program's own per-test search spans: committee
    // training plus test generation and encoding.
    m.set(
        "neural.train_s",
        stage(&traced_stages, |s| s.learning_s - s.learning_spans_s),
    );
    m.set("neural.propose_s", stage(&untraced, |s| s.propose_s));
    m.set(
        "neural.candidates_screened",
        (config.nn_candidates * c.hunts.len()) as f64,
    );
    let optimization_s = stage(&untraced, |s| s.optimization_s);
    m.set("optimization.s", optimization_s);
    m.set(
        "genetic.generations",
        c.sum(|h| h.optimization.ga.history.len() as u64) as f64,
    );
    m.set("genetic.evaluations", evaluations as f64);
    m.set(
        "optimization.measurements_per_eval",
        ga_measurements as f64 / evaluations as f64,
    );
    m.set(
        "optimization.dut_share",
        costs.seconds(&c.ga_dut) / c.hunts.len() as f64 / optimization_s,
    );
    println!("fingerprint={reference_fp:016x} rounds={rounds}");
    Ok(Outcome {
        metrics: m,
        attempted: (rounds * 2) as u64 + 1,
    })
}
