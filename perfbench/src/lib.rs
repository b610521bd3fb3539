//! # wade-perfbench — the repository's end-to-end and per-layer benchmark
//!
//! One command runs one workload (`campaign_full` or `fleet`)
//! through the crates' public APIs, checks the program's outputs and
//! prints, as its last line, one JSON object with the run's metrics and
//! its attempted and failed operation counts. Untraced runs
//! (`--trace 0`) print the end-to-end metrics; traced runs (`--trace 1`)
//! print the per-layer metrics. `README.md` beside this crate describes
//! the workloads, the metrics and the reference figures.

pub mod campaign_full;
pub mod fleet;
pub mod host;
pub mod metrics;
pub mod serving;
pub mod tracing;

use std::path::PathBuf;

use metrics::Report;

/// The reference server every campaign runs on (the "server in the lab"
/// of the paper's experiments).
pub const DEVICE_SEED: u64 = 39;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    /// A usage message on a missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds {s} outside (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: expected 0 or 1")),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !metrics::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {:?}",
                metrics::WORKLOADS
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A run's context: its arguments and a private working directory.
pub struct Ctx {
    /// The run's arguments.
    pub args: Args,
    /// Scratch directory of this run (stores live here), removed on drop.
    pub work: PathBuf,
}

impl Ctx {
    /// A context with a fresh working directory under `.bench_work/` in
    /// the current directory.
    pub fn new(args: Args) -> Self {
        let work =
            PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        Self { args, work }
    }

    /// A path inside the working directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
        // Leave the shared parent only if no other run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Runs the workload named in `ctx`.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(ctx.args.trace);
    match ctx.args.workload.as_str() {
        "campaign_full" => campaign_full::run(ctx, &mut report),
        "fleet" => fleet::run(ctx, &mut report),
        other => unreachable!("workload {other} passed argument checks"),
    }
    report
}
