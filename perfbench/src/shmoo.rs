//! `shmoo_overlay`: fig. 8's `OverlayShmoo::capture_overlay`, many random
//! tests rasterized on a 41-strobe × 13-Vdd grid. No search control: every
//! cell is one `Ate::measure_features` on the scalar DUT path.

use crate::layers::{counted_nominal_device, nominal_device, DutCosts, DutProbe};
use crate::report::{median, peak_rss_mb, percentile, print_samples, set_dut, Metrics};
use crate::{closed_loop, expect_fingerprint, fingerprint, pace, truth, Args, Outcome, SetupTimer};
use cichar_ate::{
    AteConfig, MeasurementLedger, OverlayShmoo, ParallelAte, PreparedTest, ShmooPlot,
};
use cichar_core::wcr::CharacterizationObjective;
use cichar_dut::Device;
use cichar_exec::{derive_seed, ExecPolicy};
use cichar_patterns::{random, Test, TestConditions};
use cichar_search::RegionOrder;
use cichar_units::{Axis, ParamKind, ParamRange};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SALT_INPUTS: u64 = 1;
const SALT_ATE: u64 = 2;
const SALT_TRUTH: u64 = 3;
const ORDER: RegionOrder = RegionOrder::PassBelowFail;
/// (test, row) boundaries checked against ground truth.
const TRUTH_SAMPLE: usize = 8000;
/// DUT calls logged to price each call kind.
const DUT_LOG_CALLS: usize = 1 << 18;
/// Repetitions of the bulk-timed DUT replay.
const REPLAY_ROUNDS: usize = 7;

fn test_count(smoke: bool) -> usize {
    if smoke {
        40
    } else {
        2000
    }
}

fn axes() -> (Axis, Axis) {
    (
        Axis::new(ParamKind::StrobeDelay, 16.0, 36.0, 41).expect("static axis"),
        Axis::new(ParamKind::SupplyVoltage, 1.5, 2.1, 13).expect("static axis"),
    )
}

fn inputs(seed: u64, smoke: bool) -> Vec<Test> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_INPUTS));
    (0..test_count(smoke))
        .map(|_| random::random_test_at(&mut rng, TestConditions::nominal()))
        .collect()
}

fn blueprint(seed: u64, device: Device) -> ParallelAte {
    ParallelAte::new(
        device,
        AteConfig {
            seed: derive_seed(seed, SALT_ATE),
            ..AteConfig::default()
        },
    )
}

struct Campaign {
    run_s: f64,
    overlay: OverlayShmoo,
    ledger: MeasurementLedger,
}

impl Campaign {
    /// The overlay raster (every cell's pass count) plus the row spreads.
    fn fingerprint(&self) -> u64 {
        let (x, y) = axes();
        let mut raster = String::new();
        for yi in 0..y.len() {
            for xi in 0..x.len() {
                raster.push_str(&format!("{:?},", self.overlay.pass_fraction(xi, yi)));
            }
            raster.push_str(&format!("{:?};", self.overlay.row_spread(yi)));
        }
        fingerprint(&format!(
            "{}|{raster}|{:?}",
            self.overlay.tests(),
            self.ledger
        ))
    }
}

/// A campaign's set-up: the tests and the tester blueprint.
fn prepare(seed: u64, smoke: bool, device: Device) -> (Vec<Test>, ParallelAte) {
    (inputs(seed, smoke), blueprint(seed, device))
}

fn campaign(seed: u64, smoke: bool, device: Device, policy: ExecPolicy) -> Campaign {
    let (tests, blueprint) = prepare(seed, smoke, device);
    let (x, y) = axes();
    let started = Instant::now();
    let (overlay, ledger) = OverlayShmoo::capture_overlay(&blueprint, &tests, x, y, ORDER, policy);
    Campaign {
        run_s: started.elapsed().as_secs_f64(),
        overlay,
        ledger,
    }
}

fn check(c: &Campaign, smoke: bool) -> Result<(), String> {
    let (x, y) = axes();
    let cells = (test_count(smoke) * x.len() * y.len()) as u64;
    if c.overlay.tests() as usize != test_count(smoke) || c.ledger.measurements() != cells {
        return Err(format!(
            "overlay holds {} tests and {} measurements, expected {} and {cells}",
            c.overlay.tests(),
            c.ledger.measurements(),
            test_count(smoke)
        ));
    }
    Ok(())
}

/// Per-test row boundaries, re-captured test by test on the same derived
/// sessions. Folding them must rebuild the campaign's overlay exactly;
/// then a seed-chosen sample of boundaries is checked against noiseless
/// ground truth at the row's supply.
struct RowCheck {
    boundaries: u64,
    rows: u64,
    worst: f64,
    errors: Vec<f64>,
}

fn row_check(seed: u64, smoke: bool, reference: &Campaign) -> Result<RowCheck, String> {
    let tests = inputs(seed, smoke);
    let (x, y) = axes();
    let blueprint = blueprint(seed, nominal_device());
    let mut overlay = OverlayShmoo::new(x.clone(), y.clone(), ORDER);
    let mut ledger = MeasurementLedger::new();
    let mut found: Vec<(usize, usize, f64)> = Vec::new();
    // Table 1's corner: the worst case is read on the row nearest 1.8 V.
    let nominal = (0..y.len())
        .min_by(|&a, &b| (y.at(a) - 1.8).abs().total_cmp(&(y.at(b) - 1.8).abs()))
        .expect("non-empty axis");
    let mut worst = f64::INFINITY;
    for (i, test) in tests.iter().enumerate() {
        let mut session = blueprint.session(i as u64);
        let plot = ShmooPlot::capture(&mut session, test, x.clone(), y.clone());
        ledger.merge(session.ledger());
        overlay.add(&plot);
        for yi in 0..y.len() {
            if let Some(b) = plot.row_boundary(yi, ORDER) {
                found.push((i, yi, b));
                if yi == nominal {
                    worst = worst.min(b);
                }
            }
        }
    }
    let rebuilt = Campaign {
        run_s: 0.0,
        overlay,
        ledger,
    };
    expect_fingerprint(
        "per-test re-capture",
        reference.fingerprint(),
        rebuilt.fingerprint(),
    )?;
    if found.is_empty() || !worst.is_finite() {
        return Err(String::from(
            "no shmoo row at 1.8 V has a pass/fail boundary",
        ));
    }
    let device = nominal_device();
    let range = ParamRange::new(x.at(0), x.at(x.len() - 1) + 1.0).map_err(|e| e.to_string())?;
    let errors: Vec<f64> =
        truth::sample_indices(found.len(), TRUTH_SAMPLE, derive_seed(seed, SALT_TRUTH))
            .into_iter()
            .filter_map(|k| {
                let (i, yi, b) = found[k];
                let test = PreparedTest::new(&tests[i]);
                truth::strobe_trip_at_vdd(&device, &test, y.at(yi), range).map(|t| (b - t).abs())
            })
            .collect();
    if errors.is_empty() {
        return Err(String::from(
            "no sampled boundary has a ground-truth trip point",
        ));
    }
    Ok(RowCheck {
        boundaries: found.len() as u64,
        rows: (tests.len() * y.len()) as u64,
        worst,
        errors,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let mut host_runs = Vec::new();
    let mut reference: Option<(u64, Campaign)> = None;
    let setup_timer = SetupTimer::new(|| Ok(prepare(args.seed, args.smoke, nominal_device())))?;
    let mut host_setup = Vec::new();
    let paces = closed_loop(args.seconds, 3, |_| {
        setup_timer.sample(&mut host_setup, || {
            Ok(prepare(args.seed, args.smoke, nominal_device()))
        })?;
        let c = campaign(
            args.seed,
            args.smoke,
            nominal_device(),
            ExecPolicy::serial(),
        );
        check(&c, args.smoke)?;
        host_runs.push(c.run_s);
        let fp = c.fingerprint();
        match &reference {
            Some((want, _)) => expect_fingerprint("repeat campaign", *want, fp),
            None => {
                reference = Some((fp, c));
                Ok(())
            }
        }
    })?;
    let (reference_fp, first) = reference.expect("closed loop ran");
    let two = campaign(
        args.seed,
        args.smoke,
        nominal_device(),
        ExecPolicy::with_threads(2),
    );
    expect_fingerprint("2-thread campaign", reference_fp, two.fingerprint())?;
    let rows = row_check(args.seed, args.smoke, &first)?;
    println!(
        "fingerprint={reference_fp:016x} campaigns={} truth_samples={}",
        paces.len(),
        rows.errors.len()
    );

    let runs = pace::normalize(&host_runs, &paces);
    let setup = pace::normalize(&host_setup, &paces);
    print_samples("pace", &paces);
    print_samples("run_s", &runs);
    print_samples("setup_s", &setup);
    let run_s = median(&runs);
    let trips = rows.rows as f64;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup));
    m.set("run_s", run_s);
    m.set("trips_per_s", trips / run_s);
    m.set(
        "probes_per_trip",
        first.ledger.non_speculative_measurements() as f64 / trips,
    );
    m.set("sim_ms_per_trip", first.ledger.test_time_ms() / trips);
    m.set("trusted_share", rows.boundaries as f64 / trips);
    m.set("trip_err_p99_ns", percentile(&rows.errors, 0.99));
    m.set(
        "best_wcr",
        CharacterizationObjective::drift_to_minimum(20.0).wcr(rows.worst),
    );
    m.set("ate_measurements", first.ledger.measurements() as f64);
    m.set("peak_rss_mb", peak_rss_mb()?);
    Ok(Outcome {
        metrics: m,
        attempted: paces.len() as u64 + 1,
    })
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut reference_fp: Option<u64> = None;
    let mut last = None;
    let rounds = closed_loop(args.seconds, 3, |round| {
        for k in 0..2 {
            let traced = (round + k) % 2 == 1;
            let probe = DutProbe::counting();
            let device = if traced {
                counted_nominal_device(probe.clone())
            } else {
                nominal_device()
            };
            let c = campaign(args.seed, args.smoke, device, ExecPolicy::serial());
            check(&c, args.smoke)?;
            let fp = c.fingerprint();
            match reference_fp {
                Some(want) => {
                    expect_fingerprint(if traced { "traced" } else { "untraced" }, want, fp)?
                }
                None => reference_fp = Some(fp),
            }
            if traced {
                traced_s.push(c.run_s);
                last = Some((c, probe.tally()));
            } else {
                untraced_s.push(c.run_s);
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
        args.smoke,
        counted_nominal_device(probe.clone()),
        ExecPolicy::serial(),
    );
    expect_fingerprint("logged campaign", reference_fp, logged.fingerprint())?;
    let dut_s = DutCosts::measure(&probe.take_log(), REPLAY_ROUNDS).seconds(&tally);

    let traced_run = median(&traced_s);
    let untraced_run = median(&untraced_s);
    let cells = c.ledger.measurements() as f64;
    let mut m = Metrics::default();
    m.set("trace.run_s", traced_run);
    m.set("trace.untraced_run_s", untraced_run);
    m.set(
        "trace.overhead_pct",
        (traced_run / untraced_run - 1.0) * 100.0,
    );
    set_dut(&mut m, &tally, dut_s);
    // The raster loop lives in the ATE crate: everything in the capture
    // call outside the DUT is ATE time.
    m.set("ate.measurements", cells);
    m.set("ate.self_s", untraced_run - dut_s);
    m.set(
        "ate.ns_per_measurement",
        (untraced_run - dut_s) * 1e9 / cells,
    );
    m.set("shmoo.cells", cells);
    m.set("shmoo.s", untraced_run);
    m.set("shmoo.ns_per_cell", untraced_run * 1e9 / cells);
    println!("fingerprint={reference_fp:016x} rounds={rounds}");
    Ok(Outcome {
        metrics: m,
        attempted: (rounds * 2) as u64 + 1,
    })
}
