//! `wafer_lot` and `wafer_durable`: streaming `WaferRunner` campaigns.
//!
//! * `wafer_lot` — 50 random tests per die at nominal, STP, 8-site
//!   touchdowns, default noise, no faults, no journal or telemetry. Search,
//!   ATE strobes, plan-path DUT physics and the fold do the work.
//! * `wafer_durable` — 4 tests per die (the per-die reference search is a
//!   quarter of all searches) and seeded tester faults (flip 0.02, dropout
//!   0.01) under a 4-retry recovery ladder. Its end-to-end runs keep the
//!   journal, spill and telemetry off: their small-file writes on a shared
//!   disk swung campaign time by 2× between runs. The traced run adds each
//!   sidecar (default telemetry cadence) and attributes its cost, and the
//!   verification campaign runs with all three on.

use crate::layers::{counted_nominal_device, nominal_device, DutCosts, DutProbe, DutTally};
use crate::report::{median, peak_rss_mb, percentile, print_samples, set_dut, Metrics};
use crate::{
    closed_loop, dir_bytes, expect_fingerprint, fingerprint, pace, split, truth, Args, Outcome,
    SetupTimer, WorkDir,
};
use cichar_ate::{AteConfig, MeasuredParam, MeasurementLedger, PreparedTest, TesterFaultModel};
use cichar_core::db;
use cichar_core::dsv::SearchStrategy;
use cichar_core::wafer::{WaferConfig, WaferEntry, WaferReport, WaferRunner};
use cichar_core::wcr::CharacterizationObjective;
use cichar_dut::{Device, Die, Lot};
use cichar_exec::{derive_seed, ExecPolicy};
use cichar_patterns::{random, Test, TestConditions};
use cichar_search::RetryPolicy;
use cichar_trace::{NullSink, Telemetry, TimedTracer, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const PARAM: MeasuredParam = MeasuredParam::DataValidTime;
const STRATEGY: SearchStrategy = SearchStrategy::SearchUntilTrip;
const SITES: usize = 8;
/// Converged entries checked against ground truth per campaign.
const TRUTH_SAMPLE: usize = 32768;

/// Seed-derivation salts: inputs, tester sessions, samples.
const SALT_INPUTS: u64 = 1;
const SALT_ATE: u64 = 2;
const SALT_TRUTH: u64 = 3;
/// DUT calls logged to price each call kind.
const DUT_LOG_CALLS: usize = 1 << 18;
/// Repetitions of each bulk-timed replay pass.
const REPLAY_ROUNDS: usize = 7;

/// Shape of one workload's campaign: `lots` independent lots, each with
/// its own dies and its own random test list.
#[derive(Debug, Clone, Copy)]
struct Shape {
    lots: usize,
    dies: usize,
    tests: usize,
    durable: bool,
}

impl Shape {
    fn new(durable: bool, smoke: bool) -> Self {
        let (lots, dies, tests) = match (durable, smoke) {
            (false, false) => (8, 250, 50),
            (true, false) => (32, 250, 4),
            (false, true) => (1, 48, 10),
            (true, true) => (2, 48, 4),
        };
        Self {
            lots,
            dies,
            tests,
            durable,
        }
    }

    fn searches_per_lot(&self) -> u64 {
        (self.dies * self.tests) as u64
    }

    fn searches(&self) -> u64 {
        self.searches_per_lot() * self.lots as u64
    }
}

/// Which durable sidecars a campaign runs with.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sidecars {
    journal: bool,
    spill: bool,
    telemetry: bool,
}

impl Sidecars {
    const NONE: Self = Self {
        journal: false,
        spill: false,
        telemetry: false,
    };
    const SPILL: Self = Self {
        spill: true,
        ..Self::NONE
    };
    const JOURNAL: Self = Self {
        journal: true,
        spill: true,
        ..Self::NONE
    };
    const TELEMETRY: Self = Self {
        telemetry: true,
        ..Self::NONE
    };
    const ALL: Self = Self {
        journal: true,
        spill: true,
        telemetry: true,
    };
}

/// A sidecar directory of one lot.
fn lot_dir(work: &WorkDir, lot: usize, kind: &str) -> PathBuf {
    work.join(&format!("lot{lot}-{kind}"))
}

/// Bytes written under one sidecar kind, summed over the lots.
fn sidecar_bytes(work: &WorkDir, shape: &Shape, kind: &str) -> u64 {
    (0..shape.lots)
        .map(|lot| dir_bytes(&lot_dir(work, lot, kind)))
        .sum()
}

struct Inputs {
    dies: Vec<Die>,
    tests: Vec<Test>,
}

fn inputs(seed: u64, shape: &Shape, lot: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(derive_seed(derive_seed(seed, SALT_INPUTS), lot as u64));
    let dies = Lot::default().sample_dies(&mut rng, shape.dies);
    let tests = (0..shape.tests)
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect();
    Inputs { dies, tests }
}

fn ate_config(seed: u64, shape: &Shape, lot: usize) -> AteConfig {
    AteConfig {
        faults: if shape.durable {
            TesterFaultModel::transient(0.02, 0.01)
        } else {
            TesterFaultModel::none()
        },
        seed: derive_seed(derive_seed(seed, SALT_ATE), lot as u64),
        ..AteConfig::default()
    }
}

/// One lot's product.
struct LotResult {
    report: WaferReport,
    ledger: MeasurementLedger,
    heartbeats: u64,
}

/// One finished campaign.
struct Campaign {
    run_s: f64,
    lots: Vec<LotResult>,
}

impl Campaign {
    /// The wafer aggregates and ledgers of every lot.
    fn fingerprint(&self) -> u64 {
        let mut rendered = String::new();
        for lot in &self.lots {
            let r = &lot.report;
            rendered.push_str(&format!(
                "{:?}|{}|{}|{}|{}|{:?}|{:?};",
                r.aggregate,
                r.touchdowns,
                r.contact_faults,
                r.total_measurements,
                r.timeouts,
                r.per_site_quarantined,
                lot.ledger
            ));
        }
        fingerprint(&rendered)
    }

    fn ledger(&self) -> MeasurementLedger {
        let mut merged = MeasurementLedger::new();
        for lot in &self.lots {
            merged.merge(&lot.ledger);
        }
        merged
    }

    fn sum(&self, f: impl Fn(&WaferReport) -> u64) -> u64 {
        self.lots.iter().map(|l| f(&l.report)).sum()
    }
}

fn runner(
    shape: &Shape,
    sidecars: Sidecars,
    work: &WorkDir,
    lot: usize,
    device: Device,
) -> WaferRunner {
    let mut runner = WaferRunner::new(PARAM)
        .with_device(device)
        .with_config(WaferConfig {
            sites: SITES,
            journal_dir: sidecars.journal.then(|| lot_dir(work, lot, "journal")),
            spill_dir: sidecars.spill.then(|| lot_dir(work, lot, "spill")),
            ..WaferConfig::default()
        });
    if shape.durable {
        runner = runner.with_recovery(RetryPolicy::new(4, 50.0));
    }
    runner
}

/// A lot ready to run: its inputs, tester configuration, runner and
/// telemetry handle.
type Prepared = (Inputs, AteConfig, WaferRunner, Telemetry);

/// A campaign's set-up: every lot's inputs, runner and sidecar files.
fn prepare(
    seed: u64,
    shape: &Shape,
    sidecars: Sidecars,
    work: &WorkDir,
    device: &Device,
) -> Result<Vec<Prepared>, String> {
    let mut prepared = Vec::with_capacity(shape.lots);
    for lot in 0..shape.lots {
        let inputs = inputs(seed, shape, lot);
        let mut runner = runner(shape, sidecars, work, lot, device.clone());
        if sidecars.spill {
            std::fs::create_dir_all(lot_dir(work, lot, "spill"))
                .map_err(|e| format!("spill dir: {e}"))?;
        }
        let telemetry = if sidecars.telemetry {
            Telemetry::create(
                lot_dir(work, lot, "telemetry"),
                "wafer_durable",
                Tracer::disabled(),
            )
            .map_err(|e| format!("telemetry: {e}"))?
        } else {
            Telemetry::disabled()
        };
        runner = runner.with_telemetry(telemetry.clone());
        prepared.push((inputs, ate_config(seed, shape, lot), runner, telemetry));
    }
    Ok(prepared)
}

/// One cold campaign: set-up, then the timed run of the lots one after
/// another, including each telemetry flush.
fn campaign(
    seed: u64,
    shape: &Shape,
    sidecars: Sidecars,
    work: &WorkDir,
    device: &Device,
    policy: ExecPolicy,
) -> Result<Campaign, String> {
    let prepared = prepare(seed, shape, sidecars, work, device)?;
    let started = Instant::now();
    let mut lots = Vec::with_capacity(shape.lots);
    for (inputs, config, runner, telemetry) in &prepared {
        let (report, ledger) = runner
            .run(config, &inputs.dies, &inputs.tests, STRATEGY, policy)
            .map_err(|e| format!("wafer campaign failed: {e}"))?;
        telemetry
            .finish()
            .map_err(|e| format!("telemetry flush failed: {e}"))?;
        lots.push(LotResult {
            report,
            ledger,
            heartbeats: telemetry.heartbeats(),
        });
    }
    let run_s = started.elapsed().as_secs_f64();
    Ok(Campaign { run_s, lots })
}

/// Sanity of one campaign against its inputs.
fn check_report(shape: &Shape, c: &Campaign) -> Result<(), String> {
    for lot in &c.lots {
        let r = &lot.report;
        if r.dies != shape.dies as u64 || r.aggregate.entries != shape.searches_per_lot() {
            return Err(format!(
                "lot report covers {} dies / {} entries, expected {} / {}",
                r.dies,
                r.aggregate.entries,
                shape.dies,
                shape.searches_per_lot()
            ));
        }
        if lot.ledger.measurements() != r.total_measurements {
            return Err(String::from("ledger and report disagree on measurements"));
        }
        if r.aggregate.converged == 0 {
            return Err(String::from("no search converged"));
        }
    }
    Ok(())
}

/// The spilled entries of one lot of a campaign run with a spill.
fn spilled_entries(shape: &Shape, lot: &LotResult) -> Result<Vec<WaferEntry>, String> {
    let spill = lot
        .report
        .spill
        .as_ref()
        .ok_or("verification campaign wrote no spill")?;
    let entries: Vec<WaferEntry> =
        db::load_jsonl(&spill.path).map_err(|e| format!("cannot read spill: {e}"))?;
    if entries.len() as u64 != shape.searches_per_lot() {
        return Err(format!("spill holds {} entries", entries.len()));
    }
    Ok(entries)
}

/// |measured − truth| over a seed-chosen sample of converged spill
/// entries of every lot.
fn trip_errors(seed: u64, shape: &Shape, c: &Campaign) -> Result<Vec<f64>, String> {
    let device = nominal_device();
    let mut errors = Vec::new();
    for (lot, result) in c.lots.iter().enumerate() {
        let entries = spilled_entries(shape, result)?;
        let converged: Vec<&WaferEntry> =
            entries.iter().filter(|e| e.trip_point.is_some()).collect();
        let inputs = inputs(seed, shape, lot);
        let prepared: Vec<PreparedTest<'_>> = inputs.tests.iter().map(PreparedTest::new).collect();
        let by_id: HashMap<u32, Die> = inputs.dies.iter().map(|d| (d.id(), *d)).collect();
        let sample_seed = derive_seed(derive_seed(seed, SALT_TRUTH), lot as u64);
        for i in truth::sample_indices(converged.len(), TRUTH_SAMPLE / shape.lots, sample_seed) {
            let e = converged[i];
            let die = by_id.get(&e.die).ok_or("spill names an unknown die")?;
            let test = &prepared[e.test as usize];
            let measured = e.trip_point.expect("filtered to converged");
            if let Some(reference) = truth::trip_point(&device.for_die(*die), test, PARAM) {
                errors.push((measured - reference).abs());
            }
        }
    }
    if errors.is_empty() {
        return Err(String::from(
            "no sampled entry has a ground-truth trip point",
        ));
    }
    Ok(errors)
}

/// Deterministic end-to-end metrics of one campaign.
fn result_metrics(shape: &Shape, c: &Campaign, m: &mut Metrics) {
    let searches = shape.searches() as f64;
    let ledger = c.ledger();
    m.set(
        "probes_per_trip",
        ledger.non_speculative_measurements() as f64 / searches,
    );
    m.set("sim_ms_per_trip", ledger.test_time_ms() / searches);
    m.set(
        "trusted_share",
        1.0 - c.sum(|r| r.aggregate.quarantined) as f64 / searches,
    );
    m.set("ate_measurements", ledger.measurements() as f64);
    let worst = c
        .lots
        .iter()
        .filter_map(|l| l.report.aggregate.min)
        .fold(f64::INFINITY, f64::min);
    m.set(
        "best_wcr",
        CharacterizationObjective::drift_to_minimum(20.0).wcr(worst),
    );
}

pub fn run(args: &Args, durable: bool) -> Result<Outcome, String> {
    let shape = Shape::new(durable, args.smoke);
    let work = WorkDir::create(if durable {
        "wafer_durable"
    } else {
        "wafer_lot"
    })?;
    if args.trace {
        traced(args, &shape, &work)
    } else {
        untraced(args, &shape, &work)
    }
}

fn untraced(args: &Args, shape: &Shape, work: &WorkDir) -> Result<Outcome, String> {
    let device = nominal_device();
    let mut host_runs = Vec::new();
    let mut reference: Option<(u64, Campaign)> = None;
    let setup_timer = SetupTimer::new(|| prepare(args.seed, shape, Sidecars::NONE, work, &device))?;
    let mut host_setup = Vec::new();
    let paces = closed_loop(args.seconds, 3, |_| {
        setup_timer.sample(&mut host_setup, || {
            prepare(args.seed, shape, Sidecars::NONE, work, &device)
        })?;
        let c = campaign(
            args.seed,
            shape,
            Sidecars::NONE,
            work,
            &device,
            ExecPolicy::serial(),
        )?;
        check_report(shape, &c)?;
        host_runs.push(c.run_s);
        let fp = c.fingerprint();
        match &reference {
            Some((want, _)) => expect_fingerprint("repeat campaign", *want, fp)?,
            None => reference = Some((fp, c)),
        }
        Ok(())
    })?;
    let (reference_fp, first) = reference.expect("closed loop ran at least once");

    // Verification campaign, outside the timed loop: two worker threads
    // and a spill (the trip points the accuracy check reads); on
    // `wafer_durable` the journal and telemetry too, which must not change
    // a result, and a resume of the finished journal.
    let verify_sidecars = if shape.durable {
        Sidecars::ALL
    } else {
        Sidecars::SPILL
    };
    let verify = campaign(
        args.seed,
        shape,
        verify_sidecars,
        work,
        &device,
        ExecPolicy::with_threads(2),
    )?;
    expect_fingerprint("2-thread campaign", reference_fp, verify.fingerprint())?;
    if shape.durable {
        check_resume(args.seed, shape, verify_sidecars, work, &verify)?;
    }
    let errors = trip_errors(args.seed, shape, &verify)?;
    work.clear()?;
    println!(
        "fingerprint={reference_fp:016x} campaigns={} truth_samples={}",
        paces.len(),
        errors.len()
    );
    let runs = pace::normalize(&host_runs, &paces);
    let setup = pace::normalize(&host_setup, &paces);
    print_samples("pace", &paces);
    print_samples("run_s", &runs);
    print_samples("setup_s", &setup);

    let mut m = Metrics::default();
    let run_s = median(&runs);
    m.set("setup_s", median(&setup));
    m.set("run_s", run_s);
    m.set("trips_per_s", shape.searches() as f64 / run_s);
    result_metrics(shape, &first, &mut m);
    m.set("trip_err_p99_ns", percentile(&errors, 0.99));
    m.set("peak_rss_mb", peak_rss_mb()?);
    Ok(Outcome {
        metrics: m,
        attempted: paces.len() as u64 + 1,
    })
}

/// `WaferRunner::resume` on a finished journal must replay every chunk and
/// reproduce the uninterrupted report and ledger, lot by lot.
fn check_resume(
    seed: u64,
    shape: &Shape,
    sidecars: Sidecars,
    work: &WorkDir,
    finished: &Campaign,
) -> Result<(), String> {
    for (lot, done) in finished.lots.iter().enumerate() {
        let inputs = inputs(seed, shape, lot);
        let (report, ledger, stats) = runner(shape, sidecars, work, lot, nominal_device())
            .resume(
                &ate_config(seed, shape, lot),
                &inputs.dies,
                &inputs.tests,
                STRATEGY,
                ExecPolicy::serial(),
            )
            .map_err(|e| format!("resume failed: {e}"))?;
        if stats.chunks_replayed != stats.chunks_total {
            return Err(format!(
                "resume replayed {} of {} chunks",
                stats.chunks_replayed, stats.chunks_total
            ));
        }
        if report != done.report || ledger != done.ledger {
            return Err(String::from(
                "resumed report differs from the uninterrupted run",
            ));
        }
    }
    Ok(())
}

/// The campaign variants a traced run interleaves: plain, DUT-counted,
/// and (on `wafer_durable`) DUT-counted with the journal and spill, or the
/// telemetry, added.
const PLAIN: &[(&str, Sidecars, bool)] = &[
    ("untraced", Sidecars::NONE, false),
    ("traced", Sidecars::NONE, true),
];
const DURABLE: &[(&str, Sidecars, bool)] = &[
    ("untraced", Sidecars::NONE, false),
    ("traced", Sidecars::NONE, true),
    ("journal", Sidecars::JOURNAL, true),
    ("telemetry", Sidecars::TELEMETRY, true),
];

fn traced(args: &Args, shape: &Shape, work: &WorkDir) -> Result<Outcome, String> {
    let variants = if shape.durable { DURABLE } else { PLAIN };
    let mut times: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut reference: Option<(u64, Campaign)> = None;
    let mut tally = DutTally::default();
    let mut heartbeats = 0;
    let mut bytes = (0u64, 0u64, 0u64);
    let rounds = closed_loop(args.seconds, 3, |round| {
        // Rotate the starting variant so no variant always runs first.
        for k in 0..variants.len() {
            let (key, sidecars, counted) = variants[(round + k) % variants.len()];
            let probe = DutProbe::counting();
            let device = if counted {
                counted_nominal_device(probe.clone())
            } else {
                nominal_device()
            };
            let c = campaign(
                args.seed,
                shape,
                sidecars,
                work,
                &device,
                ExecPolicy::serial(),
            )?;
            check_report(shape, &c)?;
            times.entry(key).or_default().push(c.run_s);
            match key {
                "traced" => tally = probe.tally(),
                "journal" => {
                    bytes.0 = sidecar_bytes(work, shape, "journal");
                    bytes.1 = sidecar_bytes(work, shape, "spill");
                }
                "telemetry" => {
                    bytes.2 = sidecar_bytes(work, shape, "telemetry");
                    heartbeats = c.lots.iter().map(|l| l.heartbeats).sum::<u64>();
                }
                _ => {}
            }
            work.clear()?;
            let fp = c.fingerprint();
            match &reference {
                Some((want, _)) => expect_fingerprint(key, *want, fp)?,
                None => reference = Some((fp, c)),
            }
        }
        Ok(())
    })?
    .len();
    let (reference_fp, c) = reference.expect("closed loop ran");

    // Price the DUT calls from a logged campaign (outside the timed loop).
    let probe = DutProbe::logging(DUT_LOG_CALLS);
    let logged = campaign(
        args.seed,
        shape,
        Sidecars::NONE,
        work,
        &counted_nominal_device(probe.clone()),
        ExecPolicy::serial(),
    )?;
    expect_fingerprint("logged campaign", reference_fp, logged.fingerprint())?;
    let costs = DutCosts::measure(&probe.take_log(), REPLAY_ROUNDS);

    let traced_s = median(&times["traced"]);
    let untraced_s = median(&times["untraced"]);
    let dut_s = costs.seconds(&tally);
    let mut m = Metrics::default();
    m.set("trace.run_s", traced_s);
    m.set("trace.untraced_run_s", untraced_s);
    m.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    set_dut(&mut m, &tally, dut_s);
    let ledger = c.ledger();
    m.set("ate.measurements", ledger.measurements() as f64);
    m.set("search.trips", c.sum(|r| r.aggregate.entries) as f64);
    m.set("search.recovered", c.sum(|r| r.aggregate.recovered) as f64);
    m.set(
        "search.quarantined",
        c.sum(|r| r.aggregate.quarantined) as f64,
    );
    m.set("wafer.touchdowns", c.sum(|r| r.touchdowns) as f64);
    m.set("wafer.contact_faults", c.sum(|r| r.contact_faults) as f64);
    m.set(
        "stream.entries_folded",
        c.sum(|r| r.aggregate.entries) as f64,
    );

    let mut attributed = dut_s;
    if shape.durable {
        // Sidecar costs are differentials against the sidecar-free counted
        // campaign; the untraced run carries no sidecar.
        let journal_s = median(&times["journal"]) - traced_s;
        let telemetry_s = median(&times["telemetry"]) - traced_s;
        let chunk = WaferConfig::default().chunk_touchdowns as u64;
        m.set(
            "journal.chunks",
            c.sum(|r| r.touchdowns.div_ceil(chunk)) as f64,
        );
        m.set("journal.bytes", bytes.0 as f64);
        m.set("spill.bytes", bytes.1 as f64);
        m.set("journal.self_s", journal_s);
        m.set("telemetry.heartbeats", heartbeats as f64);
        m.set("telemetry.bytes", bytes.2 as f64);
        m.set("telemetry.self_s", telemetry_s);
        m.set("telemetry.overhead_pct", telemetry_s / traced_s * 100.0);
    } else {
        let split = lot_split(args.seed, shape, work, &costs)?;
        m.set("search.self_s", split.search_s);
        m.set("ate.self_s", split.ate_s);
        m.set(
            "ate.ns_per_measurement",
            split.ate_s * 1e9 / ledger.measurements() as f64,
        );
        m.set("stream.self_s", split.stream_s);
        attributed += split.search_s + split.ate_s + split.stream_s;
    }
    m.set("wafer.unattributed_s", untraced_s - attributed);
    m.set(
        "wafer.unattributed_share",
        (untraced_s - attributed) / untraced_s,
    );
    m.set(
        "trace.span_coverage",
        span_coverage(args.seed, shape, work, &c)?,
    );
    println!("fingerprint={reference_fp:016x} rounds={rounds}");
    Ok(Outcome {
        metrics: m,
        attempted: (rounds * variants.len()) as u64 + 1,
    })
}

/// The program's own span-timing total over the first lot's wafer
/// campaign, as a share of that campaign's wall time measured here.
fn span_coverage(
    seed: u64,
    shape: &Shape,
    work: &WorkDir,
    reference: &Campaign,
) -> Result<f64, String> {
    let inputs = inputs(seed, shape, 0);
    let timed = TimedTracer::new(Arc::new(NullSink));
    timed.phase("wafer");
    let runner = runner(shape, Sidecars::NONE, work, 0, nominal_device());
    let started = Instant::now();
    let (report, ledger) = runner
        .run_traced(
            &ate_config(seed, shape, 0),
            &inputs.dies,
            &inputs.tests,
            STRATEGY,
            ExecPolicy::serial(),
            timed.tracer(),
        )
        .map_err(|e| format!("timed-tracer campaign failed: {e}"))?;
    let wall_ns = started.elapsed().as_nanos() as f64;
    let first = &reference.lots[0];
    if report.aggregate != first.report.aggregate || ledger != first.ledger {
        return Err(String::from(
            "timed-tracer campaign changed the first lot's result",
        ));
    }
    Ok(timed.timing_snapshot().total_ns() as f64 / wall_ns)
}

/// The first lot's per-die loop split by differential replay, scaled to
/// the whole campaign by measurement count.
fn lot_split(
    seed: u64,
    shape: &Shape,
    work: &WorkDir,
    costs: &DutCosts,
) -> Result<split::Split, String> {
    let spilled = campaign(
        seed,
        shape,
        Sidecars::SPILL,
        work,
        &nominal_device(),
        ExecPolicy::serial(),
    )?;
    let entries = spilled_entries(shape, &spilled.lots[0])?;
    work.clear()?;
    let expected: HashMap<(u32, u32), Option<f64>> = entries
        .iter()
        .map(|e| ((e.die, e.test), e.trip_point))
        .collect();
    let inputs = inputs(seed, shape, 0);
    let s = split::measure(
        &inputs.dies,
        &inputs.tests,
        &ate_config(seed, shape, 0),
        &expected,
        costs,
        REPLAY_ROUNDS,
    )?;
    // Lots differ in how many strobes their tests need; scale by strobes.
    let scale =
        spilled.ledger().measurements() as f64 / spilled.lots[0].ledger.measurements() as f64;
    Ok(split::Split {
        search_s: s.search_s * scale,
        ate_s: s.ate_s * scale,
        stream_s: s.stream_s * scale,
    })
}
