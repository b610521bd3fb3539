//! `fleet`: a cold fleet sweep with streaming evaluation, then an epoch
//! extension that reuses the stored prefix.
//!
//! * **Set-up** (`setup_s`, timed by [`tracing::set_up`]): a `FleetSweep`
//!   engine for `FleetSpec::test_default()` widened to [`DEVICES`]
//!   devices, under the run's seed.
//! * **Cold pass** (`cold_s`): `sweep_stored_visit` through an empty store
//!   into a `FleetEvalBuilder` (the engine profiles its Test-scale suite
//!   first, in milliseconds), then the lead-time reports and the cost
//!   curve.
//! * **Warm pass** (`warm_cpu_s`): the same fleet extended by
//!   [`EXTRA_EPOCHS`] epochs on a fresh engine over a copy of the cold
//!   sweep's store — the prefix is read back, only the new epochs are
//!   simulated — and evaluated the same way; repeated on fresh copies
//!   until the run has timed `--seconds` of extensions, `warm_cpu_s` being
//!   the median of their process CPU seconds. The traced run times one
//!   extension and reports its wall time and its CPU per wall second.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wade_fleet::{
    CostPoint, DeviceHistory, FleetEval, FleetEvalBuilder, FleetEvalConfig, FleetSpec, FleetSweep,
    LeadTimeReport,
};
use wade_store::{mix64, ArtifactStore};
use wade_workloads::full_suite;

use crate::metrics::Report;
use crate::tracing::{self, median, Clock, CountingFs, IoLog, Layers, Sample, StoreReplay};
use crate::Ctx;

/// Devices in the fleet: four times `FleetSpec::test_default()`, so that
/// a run's cost does not hang on the few hottest devices one seed draws.
pub const DEVICES: u32 = 768;
/// Epochs the warm pass adds to the swept fleet.
pub const EXTRA_EPOCHS: u32 = 4;
/// Devices replayed through `device_history` as an isolation check.
const REPLAYED: u32 = 6;
/// Salt of the engine's profiling seeds: `PROFILE_SALT` of
/// `crates/fleet/src/spec.rs`, which the crate does not export.
const PROFILE_SALT: u64 = 0xF1EE_7000_0000_0006;
/// Cost-curve prices: a migration and an unmitigated crash.
const MIGRATION_COST: f64 = 1.0;
const CRASH_COST: f64 = 25.0;

/// A swept and evaluated fleet.
struct Scored {
    devices: Vec<DeviceHistory>,
    reports: Vec<LeadTimeReport>,
    curve: Vec<CostPoint>,
    failures: usize,
    /// Wall time of the pass.
    sample: Sample,
    /// Evaluation time on the calling thread (pushes, reports, curve).
    eval: Sample,
}

/// Sweeps `sweep` through `store`, streaming every history into the
/// evaluation, then computes the reports and the cost curve.
fn score(sweep: &FleetSweep, store: &ArtifactStore) -> Scored {
    let clock = Clock::start();
    let spec = *sweep.spec();
    let mut builder = FleetEvalBuilder::new(spec.epoch_s, FleetEvalConfig::for_spec(&spec));
    let mut devices = Vec::with_capacity(spec.devices as usize);
    let mut eval_s = 0.0;
    sweep.sweep_stored_visit(store, |device| {
        let t = Instant::now();
        builder.push(&device);
        eval_s += t.elapsed().as_secs_f64();
        devices.push(device);
    });
    let t = Instant::now();
    let eval: FleetEval = builder.finish();
    let reports = eval.lead_time_reports();
    let curve = eval.cost_curve(MIGRATION_COST, CRASH_COST);
    let failures = eval.failures().len();
    eval_s += t.elapsed().as_secs_f64();
    // The evaluation runs alone on this thread: its CPU equals its wall.
    let eval = Sample {
        wall_s: eval_s,
        cpu_s: eval_s,
    };
    Scored {
        devices,
        reports,
        curve,
        failures,
        sample: clock.stop(),
        eval,
    }
}

fn open(ctx: &Ctx, name: &str, log: Option<&Arc<IoLog>>) -> ArtifactStore {
    let dir = ctx.dir(name);
    match log {
        Some(log) => ArtifactStore::open_with_fs(dir, CountingFs::new(log.clone())),
        None => ArtifactStore::open(dir),
    }
}

/// Alive device-epochs at or after `from` in the histories.
fn epochs_from(devices: &[DeviceHistory], from: u32) -> u64 {
    devices
        .iter()
        .map(|d| d.epochs.iter().filter(|e| e.epoch >= from).count() as u64)
        .sum()
}

fn digest(devices: &[DeviceHistory]) -> String {
    serde_json::to_string(&devices.to_vec()).unwrap_or_default()
}

/// Copies a store directory (one level of kind directories), so that each
/// extension starts from the cold sweep's prefix.
fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    for kind in std::fs::read_dir(from)? {
        let kind = kind?;
        let target = to.join(kind.file_name());
        std::fs::create_dir_all(&target)?;
        for entry in std::fs::read_dir(kind.path())? {
            let entry = entry?;
            std::fs::copy(entry.path(), target.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let traced = report.traced();
    let seed = ctx.args.seed;
    let spec = FleetSpec {
        devices: DEVICES,
        ..FleetSpec::test_default()
    };
    let ext_spec = FleetSpec {
        epochs: spec.epochs + EXTRA_EPOCHS,
        ..spec
    };
    let log = traced.then(|| Arc::new(IoLog::default()));
    let cpu0 = crate::host::process_cpu();

    let (base_engine, setup_s, setup) = tracing::set_up(|| FleetSweep::new(spec, seed));

    let base = score(&base_engine, &open(ctx, "base", log.as_ref()));
    let cold_io = log.as_ref().map(|l| l.take());
    if let Err(e) = copy_store(&ctx.dir("base"), &ctx.dir("ext")) {
        report.check(false, format!("copying the swept store failed: {e}"));
        return;
    }
    let ext_engine = FleetSweep::new(ext_spec, seed);
    let ext_store = open(ctx, "ext", log.as_ref());
    let ext = score(&ext_engine, &ext_store);
    let ext_io = log.as_ref().map(|l| l.take());
    let ext_hits = ext_store.hits();
    eprintln!(
        "fleet: cold {:.3}s ({} simulations), extension {:.3}s ({} simulations)",
        base.sample.wall_s,
        base_engine.simulations(),
        ext.sample.wall_s,
        ext_engine.simulations()
    );

    // ---- output checks
    let delta = epochs_from(&ext.devices, spec.epochs);
    let prefix_sims = ext_engine.simulations().saturating_sub(delta);
    report.check(
        ext_engine.simulations() == delta,
        format!(
            "extension ran {} simulations for {delta} new device-epochs",
            ext_engine.simulations()
        ),
    );
    report.check(
        base_engine.simulations() == epochs_from(&base.devices, 0),
        "cold sweep simulations differ from its device-epochs",
    );
    let prefix_same = base.devices.len() == ext.devices.len()
        && base.devices.iter().zip(&ext.devices).all(|(b, e)| {
            let head: Vec<_> = e
                .epochs
                .iter()
                .filter(|x| x.epoch < spec.epochs)
                .cloned()
                .collect();
            let failed_same = match b.failed_at_s {
                Some(_) => e.failed_at_s == b.failed_at_s,
                None => e
                    .failed_at_s
                    .is_none_or(|t| t >= f64::from(spec.epochs) * spec.epoch_s),
            };
            (b.index, b.seed, b.vintage, b.fingerprint)
                == (e.index, e.seed, e.vintage, e.fingerprint)
                && serde_json::to_string(&b.epochs).ok() == serde_json::to_string(&head).ok()
                && failed_same
        });
    report.check(
        prefix_same,
        "the extended fleet's first epochs differ from the base sweep",
    );
    let replay_engine = FleetSweep::new(ext_spec, seed);
    for k in 0..REPLAYED {
        let index = (mix64(seed, u64::from(k)) % u64::from(ext_spec.devices)) as u32;
        report.check(
            replay_engine.device_history(index) == ext.devices[index as usize],
            format!("device {index} replayed alone differs from its swept history"),
        );
    }
    for scored in [&base, &ext] {
        let recalls: Vec<f64> = scored.reports.iter().map(|r| r.recall).collect();
        // Lead windows `[T_f - lead, T_f)` nest as the lead grows, so a
        // failure caught at one lead is caught at every longer one.
        report.check(
            recalls.windows(2).all(|w| w[0] <= w[1]),
            format!("recall falls with a longer lead time: {recalls:?}"),
        );
        let never = scored.curve.last().map(|p| (p.threshold, p.cost));
        report.check(
            never == Some((f64::INFINITY, CRASH_COST * scored.failures as f64)),
            format!(
                "never-migrate point {never:?} is not crash cost x {} failures",
                scored.failures
            ),
        );
    }
    report.ops(base_engine.simulations() + ext_engine.simulations(), 0);

    if !traced {
        // More extensions, each on a fresh copy of the cold sweep's store,
        // until the run has timed `--seconds` of them; `warm_cpu_s` is the
        // median of their CPU.
        let want = digest(&ext.devices);
        let mut extensions = vec![ext.sample];
        while extensions.iter().map(|s| s.wall_s).sum::<f64>() < ctx.args.seconds {
            if let Err(e) = copy_store(&ctx.dir("base"), &ctx.dir("again")) {
                report.check(false, format!("copying the swept store failed: {e}"));
                return;
            }
            let engine = FleetSweep::new(ext_spec, seed);
            let again = score(&engine, &open(ctx, "again", None));
            extensions.push(again.sample);
            report.check(
                engine.simulations() == ext_engine.simulations() && digest(&again.devices) == want,
                "a repeated extension simulated differently or produced different histories",
            );
            report.ops(engine.simulations(), 0);
        }
        let walls: Vec<f64> = extensions.iter().map(|s| s.wall_s).collect();
        let cpus: Vec<f64> = extensions.iter().map(|s| s.cpu_s).collect();
        eprintln!(
            "fleet: {} extensions, median wall {:.3}s, median CPU {:.3}s",
            walls.len(),
            median(&walls),
            median(&cpus)
        );
        report.set("setup_s", setup_s);
        report.set("cold_s", base.sample.wall_s);
        report.set("warm_cpu_s", median(&cpus));
        return;
    }

    // ---- traced run
    let cpu1 = crate::host::process_cpu();
    report.set("peak_rss_mib", crate::host::peak_rss_mib());
    report.set("warm_wall_s", ext.sample.wall_s);
    report.set("warm_parallelism", ext.sample.cpu_s / ext.sample.wall_s);
    let (cold_io, ext_io) = (cold_io.unwrap_or_default(), ext_io.unwrap_or_default());
    let suite: Vec<_> = full_suite(spec.scale)
        .into_iter()
        .take(spec.max_workloads as usize)
        .collect();
    // The engine profiles kernel `i` with `mix64(mix64(seed, salt), i)`;
    // the access-count check fails if the two salts drift apart.
    let profile_seed = mix64(seed, PROFILE_SALT);
    let accesses: Vec<u64> = base_engine
        .profiles()
        .iter()
        .map(|p| p.trace.mem_accesses)
        .collect();
    let busy = tracing::isolate_profiling(
        &wade_core::SimulatedServer::with_seed(seed),
        &suite,
        |i| mix64(profile_seed, i as u64),
        &accesses,
    );
    report.check(
        busy.mismatched == 0,
        "a kernel's emitted accesses differ from its profile's count",
    );
    busy.write(report);
    let base_store = open(ctx, "base", None);
    let cold_writes =
        StoreReplay::new(&base_store, ctx.dir("replay")).busy(&cold_io.written_paths, true);
    let replay = StoreReplay::new(&ext_store, ctx.dir("replay"));
    let ext_reads = replay.busy(&ext_io.read_paths, false);
    let ext_writes = replay.busy(&ext_io.written_paths, true);
    drop(replay);

    // Each engine profiles the suite once, inside its sweep.
    let mut layers = Layers::default();
    layers.glue(setup);
    let mut cold_busy = busy.busy().to_vec();
    cold_busy.push(("store.write_s", cold_writes));
    layers.phase(
        base.sample,
        &[("fleet.eval_s", base.eval)],
        &cold_busy,
        "dram.characterize_s",
    );
    let mut ext_busy = busy.busy().to_vec();
    ext_busy.extend([("store.read_s", ext_reads), ("store.write_s", ext_writes)]);
    layers.phase(
        ext.sample,
        &[("fleet.eval_s", ext.eval)],
        &ext_busy,
        "dram.characterize_s",
    );
    layers.write(report, cold_io.calls + ext_io.calls);

    let sims = base_engine.simulations() + ext_engine.simulations();
    report.set(
        "dram.sim_ms_per_device_epoch",
        layers.get("dram.characterize_s") * 1e3 / sims.max(1) as f64,
    );
    report.set("fleet.simulations", base_engine.simulations() as f64);
    report.set("fleet.extend_simulations", ext_engine.simulations() as f64);
    report.set("fleet.prefix_simulations", prefix_sims as f64);
    report.set(
        "store.writes",
        (cold_io.written_paths.len() + ext_io.written_paths.len()) as f64,
    );
    report.set(
        "store.bytes_written",
        (cold_io.bytes_written + ext_io.bytes_written) as f64,
    );
    report.set("store.hits", ext_hits as f64);
    report.set("store.bytes_read", ext_io.bytes_read as f64);
    let (user, sys) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
    report.set("cpu.sys_share", sys / (user + sys).max(1e-9));
    for name in [
        "ml.trainings",
        "ml.predict_us",
        "ml.predict_1t_us",
        "serve.protocol_us",
        "serve.transport_us",
        "serve.p99_ms",
        "serve.batch_rows_mean",
        "serve.boot_s",
    ] {
        report.set(name, 0.0);
    }
}
