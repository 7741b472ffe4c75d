//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wafer_lot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload runs a closed loop of one campaign at a time on one worker
//! thread for `--seconds`, every campaign starting cold (fresh runner,
//! tester sessions and plan caches). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs traced and untraced campaigns side by side and
//! prints the per-layer metrics. Any failed correctness check exits with
//! status 1 before a result line is printed. See `perfbench/README.md`.

mod layers;
mod nnga;
mod pace;
mod report;
mod shmoo;
mod split;
mod truth;
mod wafer;

use report::Metrics;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured closed loop.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) invocation.
    pub trace: bool,
    /// Tiny input sizes, for the benchmark's own tests.
    pub smoke: bool,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["wafer_lot", "wafer_durable", "nnga_hunt", "shmoo_overlay"];

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut raw = raw.peekable();
    while let Some(flag) = raw.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?} (one of {WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?}: expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value:?}: expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value:?}: expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

/// What a workload run hands back: its metrics and how many campaigns it
/// attempted (every one of which passed its checks — a failure aborts).
pub struct Outcome {
    /// The metrics of this run's kind.
    pub metrics: Metrics,
    /// Campaigns attempted.
    pub attempted: u64,
}

/// Runs `campaign` back to back until `seconds` have elapsed and at least
/// `min_campaigns` ran, with the reference kernel before each campaign
/// and after the last. Returns each campaign's pace (see [`pace`]); their
/// number is the number of campaigns run.
pub fn closed_loop(
    seconds: f64,
    min_campaigns: usize,
    mut campaign: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut kernel = vec![pace::kernel_s()];
    while kernel.len() <= min_campaigns || started.elapsed().as_secs_f64() < seconds {
        campaign(kernel.len() - 1)?;
        kernel.push(pace::kernel_s());
    }
    Ok(pace::paces(&kernel))
}

/// The least host time one set-up sample spans: sub-microsecond set-ups
/// are batched so that clock resolution and per-call jitter do not
/// dominate.
const SETUP_SAMPLE_S: f64 = 1e-3;

/// Times a campaign's set-up — its input generation and runner
/// construction. A sample is the mean over a batch of back-to-back
/// set-ups; what they build is dropped outside the clock. Samples are
/// taken between campaigns, so they spread over the run like the
/// campaigns do.
pub struct SetupTimer {
    batch: usize,
}

impl SetupTimer {
    /// Sizes the batch from one set-up, which is not recorded.
    pub fn new<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<Self, String> {
        let started = Instant::now();
        drop(setup()?);
        let once = started.elapsed().as_secs_f64();
        Ok(Self {
            batch: ((SETUP_SAMPLE_S / once).ceil() as usize).clamp(1, 1000),
        })
    }

    /// Appends one sample of `setup`'s host seconds to `samples`.
    pub fn sample<T>(
        &self,
        samples: &mut Vec<f64>,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        let mut built = Vec::with_capacity(self.batch);
        let started = Instant::now();
        for _ in 0..self.batch {
            built.push(setup()?);
        }
        samples.push(started.elapsed().as_secs_f64() / self.batch as f64);
        Ok(())
    }
}

/// A 64-bit digest of a result's exact `Debug` rendering (`f64`s render
/// in shortest round-trip form, so equal digests mean bit-equal results).
pub fn fingerprint(rendered: &str) -> u64 {
    cichar_dut::backend::fnv1a(cichar_dut::backend::FNV_OFFSET, rendered.as_bytes())
}

/// Fails unless `got` equals the run's reference fingerprint.
pub fn expect_fingerprint(what: &str, reference: u64, got: u64) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: result fingerprint {got:016x} differs from the reference {reference:016x}"
        ))
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench_work/<workload>-<pid>` under the working
    /// directory.
    pub fn create(workload: &str) -> Result<Self, String> {
        let root = Path::new(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create work dir {}: {e}", root.display()))?;
        Ok(Self { root })
    }

    /// A path under the work directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Removes everything written under the work directory.
    pub fn clear(&self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.root)
            .and_then(|()| std::fs::create_dir_all(&self.root))
            .map_err(|e| format!("cannot clear work dir {}: {e}", self.root.display()))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `.perfbench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(Path::new(".perfbench_work"));
    }
}

/// Total size in bytes of the regular files under `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Host facts printed with every result set.
fn host_facts() -> String {
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| {
            s.lines()
                .filter(|l| l.starts_with("processor"))
                .count()
                .to_string()
        })
        .unwrap_or_else(|_| String::from("unknown"));
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| String::from("unknown"));
    format!(
        "host: nproc={online} available_parallelism={parallelism} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "wafer_lot" => wafer::run(args, false),
        "wafer_durable" => wafer::run(args, true),
        "nnga_hunt" => nnga::run(args),
        "shmoo_overlay" => shmoo::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    println!("{}", host_facts());
    println!(
        "workload={} seed={} seconds={} trace={} threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let line = run(&args).and_then(|out| out.metrics.result_line(args.trace, out.attempted));
    match line {
        Ok(line) => println!("{line}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "nnga_hunt",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("nnga_hunt", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_values() {
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "wafer_lot", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "wafer_lot", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "wafer_lot", "--seed", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "wafer_lot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
