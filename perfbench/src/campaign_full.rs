//! `campaign_full`: the paper pipeline at `Scale::Full`, cold then warm.
//!
//! * **Set-up** (`setup_s`, timed by [`tracing::set_up`]): manufacturing
//!   the reference server (`SimulatedServer::with_seed`) and instantiating
//!   the 17-config `full_suite(Scale::Full)`.
//! * **Cold pass** (`cold_s`): profile the suite, collect the
//!   `CampaignConfig::paper_full()` grid with `Campaign::collect_stored`
//!   and evaluate the SVM/KNN/RDF × set 1–3 grid with
//!   `EvalGrid::evaluate_targets_with`, all into an empty store.
//! * **Warm pass** (`warm_cpu_s`): the same calls against the filled
//!   store, with a fresh store handle and a fresh `ProfileCache`, repeated
//!   until the run has timed `--seconds` of warm passes; `warm_cpu_s` is
//!   the median of their process CPU seconds (their wall time follows the
//!   host's scheduling of the many short parallel sections the evaluation
//!   dispatches; see `README.md`).
//!
//! The traced run times one warm pass, reports its wall time and its CPU
//! per wall second, and ends with the serving probe
//! ([`crate::serving::probe`]) over the cold pass's campaign.
//!
//! The campaign seed (which also seeds profiling) is the run's `--seed`.

use std::sync::Arc;

use wade_core::{
    Campaign, CampaignConfig, CampaignData, EvalGrid, MlKind, ProfileCache, SimulatedServer,
};
use wade_ecc::{DecodeOutcome, Secded};
use wade_features::{schema, FeatureSet};
use wade_store::ArtifactStore;
use wade_workloads::{full_suite, BoxedWorkload, Scale};

use crate::metrics::Report;
use crate::tracing::{
    self, median, timed, CountingFs, IoLog, IoTally, Layers, Sample, StoreReplay,
};
use crate::{Ctx, DEVICE_SEED};

/// Table II of the paper: DRAM reuse time (s) per configuration.
const PAPER_TREUSE: &[(&str, f64)] = &[
    ("nw", 10.93),
    ("nw(par)", 4.06),
    ("srad", 2.82),
    ("srad(par)", 1.89),
    ("backprop", 1.61),
    ("backprop(par)", 1.10),
    ("kmeans", 0.17),
    ("kmeans(par)", 0.50),
    ("fmm", 8.88),
    ("fmm(par)", 2.41),
    ("memcached", 0.09),
    ("pagerank", 0.48),
    ("bfs", 0.61),
    ("bc", 0.56),
];

/// The set-up: the reference server and the Full-scale suite.
struct Lab {
    server: SimulatedServer,
    suite: Vec<BoxedWorkload>,
}

/// What one pass produced.
struct Pass {
    /// Accesses of each kernel's profile, in suite order.
    accesses: Vec<u64>,
    data: CampaignData,
    grid: EvalGrid,
    store: Arc<ArtifactStore>,
    cache: Arc<ProfileCache>,
    /// Profiling, collection and evaluation spans.
    spans: [Sample; 3],
    /// Store I/O of each span (empty when untraced).
    io: [IoTally; 3],
}

fn open(ctx: &Ctx, log: Option<&Arc<IoLog>>) -> Arc<ArtifactStore> {
    let dir = ctx.dir("store");
    Arc::new(match log {
        Some(log) => ArtifactStore::open_with_fs(dir, CountingFs::new(log.clone())),
        None => ArtifactStore::open(dir),
    })
}

/// One pass of the pipeline on fresh handles over the run's store.
fn pass(ctx: &Ctx, lab: &Lab, log: Option<&Arc<IoLog>>) -> Pass {
    let suite = &lab.suite;
    let seed = ctx.args.seed;
    let store = open(ctx, log);
    let cache = Arc::new(ProfileCache::with_store(store.clone()));
    let campaign = Campaign::new(lab.server.clone(), CampaignConfig::paper_full())
        .with_profile_cache(cache.clone());
    let take = || log.map(|l| l.take()).unwrap_or_default();
    let (profiles, profile) = timed(|| campaign.profile_suite(suite, seed));
    let profile_io = take();
    let (data, collect) = timed(|| campaign.collect_stored(&store, suite, seed));
    let collect_io = take();
    let (grid, eval) = timed(|| {
        EvalGrid::evaluate_targets_with(
            Some(store.clone()),
            &data,
            &MlKind::ALL,
            &FeatureSet::ALL,
            true,
            true,
        )
    });
    let eval_io = take();
    Pass {
        accesses: profiles.iter().map(|p| p.trace.mem_accesses).collect(),
        data,
        grid,
        store,
        cache,
        spans: [profile, collect, eval],
        io: [profile_io, collect_io, eval_io],
    }
}

fn wall(spans: &[Sample]) -> f64 {
    spans.iter().map(|s| s.wall_s).sum()
}

fn cpu(spans: &[Sample]) -> f64 {
    spans.iter().map(|s| s.cpu_s).sum()
}

/// Every evaluated report, exactly (`Debug` prints `f64` round-trip
/// exact).
fn grid_digest(grid: &EvalGrid) -> String {
    let mut out = String::new();
    for kind in MlKind::ALL {
        for set in FeatureSet::ALL {
            out.push_str(&format!(
                "{:?}|{:016x}\n",
                grid.wer_report(kind, set),
                grid.pue_error(kind, set).to_bits()
            ));
        }
    }
    out
}

/// Operations of one pass: campaign cells plus fold models trained or
/// read back. A cell fails when it lacks the outcome its grid promises.
fn pass_ops(data: &CampaignData, grid: &EvalGrid, config: &CampaignConfig) -> (u64, u64) {
    let failed = data
        .rows
        .iter()
        .filter(|row| {
            let wer_cell = config.wer_ops.contains(&row.op);
            let pue_cell = config.pue_ops.contains(&row.op);
            (wer_cell && row.wer_run.is_none())
                || (pue_cell && row.pue_runs.len() != config.pue_repeats as usize)
        })
        .count() as u64;
    let attempted = data.rows.len() as u64 + (grid.trainings() + grid.store_hits()) as u64;
    (attempted, failed)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let traced = report.traced();
    let config = CampaignConfig::paper_full();
    let mut layers = Layers::default();
    let log = traced.then(|| Arc::new(IoLog::default()));
    let cpu0 = crate::host::process_cpu();

    let (lab, setup_s, setup) = tracing::set_up(|| Lab {
        server: SimulatedServer::with_seed(DEVICE_SEED),
        suite: full_suite(Scale::Full),
    });
    layers.glue(setup);

    let cold = pass(ctx, &lab, log.as_ref());
    let cold_writes = cold.store.writes();
    let warm = pass(ctx, &lab, log.as_ref());
    eprintln!(
        "campaign_full: cold {:.2}s (profile {:.2}s, collect {:.2}s, eval {:.2}s), warm {:.3}s",
        wall(&cold.spans),
        cold.spans[0].wall_s,
        cold.spans[1].wall_s,
        cold.spans[2].wall_s,
        wall(&warm.spans)
    );

    check_outputs(report, &cold, &warm);
    let ops = pass_ops(&cold.data, &cold.grid, &config);
    report.ops(ops.0, ops.1);
    let ops = pass_ops(&warm.data, &warm.grid, &config);
    report.ops(ops.0, ops.1);

    if !traced {
        // More warm passes on fresh handles until the run has timed
        // `--seconds` of them; `warm_cpu_s` is the median of their CPU.
        let cold_json = cold.data.to_json().unwrap_or_default();
        let cold_digest = grid_digest(&cold.grid);
        let mut walls = vec![wall(&warm.spans)];
        let mut cpus = vec![cpu(&warm.spans)];
        while walls.iter().sum::<f64>() < ctx.args.seconds {
            let again = pass(ctx, &lab, None);
            walls.push(wall(&again.spans));
            cpus.push(cpu(&again.spans));
            let same = again.data.to_json().unwrap_or_default() == cold_json
                && grid_digest(&again.grid) == cold_digest
                && again.grid.trainings() == 0
                && again.store.writes() == 0;
            report.check(
                same,
                "a repeated warm pass differs from the cold pass or did work",
            );
            let ops = pass_ops(&again.data, &again.grid, &config);
            report.ops(ops.0, ops.1);
        }
        eprintln!(
            "campaign_full: {} warm passes, median wall {:.3}s, median CPU {:.3}s",
            walls.len(),
            median(&walls),
            median(&cpus)
        );
        report.set("setup_s", setup_s);
        report.set("cold_s", wall(&cold.spans));
        report.set("warm_cpu_s", median(&cpus));
        return;
    }

    // ---- traced run: attribute the phases, then the isolated re-runs.
    let cpu1 = crate::host::process_cpu();
    report.set("peak_rss_mib", crate::host::peak_rss_mib());
    report.set("warm_wall_s", wall(&warm.spans));
    report.set("warm_parallelism", cpu(&warm.spans) / wall(&warm.spans));
    let profiled = cold.cache.len();
    let busy =
        tracing::isolate_profiling(&lab.server, &lab.suite, |_| ctx.args.seed, &cold.accesses);
    report.check(
        busy.mismatched == 0,
        "a kernel's emitted accesses differ from its profile's count",
    );
    report.check(
        profiled == lab.suite.len(),
        "the cold pass did not profile every kernel",
    );
    busy.write(report);

    let replay = StoreReplay::new(&cold.store, ctx.dir("replay"));
    let [profile_writes, campaign_writes, model_writes] = cold
        .io
        .each_ref()
        .map(|io| replay.busy(&io.written_paths, true));
    let [profile_reads, campaign_reads, model_reads] = warm
        .io
        .each_ref()
        .map(|io| replay.busy(&io.read_paths, false));
    drop(replay);

    let mut profile_busy = busy.busy().to_vec();
    profile_busy.push(("store.write_s", profile_writes));
    layers.phase(cold.spans[0], &[], &profile_busy, "core.profile_s");
    layers.phase(
        cold.spans[1],
        &[],
        &[("store.write_s", campaign_writes)],
        "dram.characterize_s",
    );
    let predict_cpu = (warm.spans[2].cpu_s - model_reads).max(0.0);
    layers.phase(
        cold.spans[2],
        &[],
        &[
            ("store.write_s", model_writes),
            ("ml.eval_predict_s", predict_cpu),
        ],
        "ml.train_s",
    );
    // Warm profiling reads the stored profiles back; the warm collection
    // is one campaign read.
    layers.phase(
        warm.spans[0],
        &[],
        &[("store.read_s", profile_reads)],
        "core.profile_s",
    );
    layers.phase(
        warm.spans[1],
        &[],
        &[("store.read_s", campaign_reads)],
        "store.read_s",
    );
    layers.phase(
        warm.spans[2],
        &[],
        &[("store.read_s", model_reads)],
        "ml.eval_predict_s",
    );
    let all_io = || cold.io.iter().chain(&warm.io);
    layers.write(report, all_io().map(|io| io.calls).sum());

    let runs = error_sim_runs(&cold.data);
    report.set(
        "dram.sim_ms_per_device_epoch",
        layers.get("dram.characterize_s") * 1e3 / runs.max(1) as f64,
    );
    report.set("ml.trainings", cold.grid.trainings() as f64);
    report.set("store.writes", cold_writes as f64);
    report.set(
        "store.bytes_written",
        all_io().map(|io| io.bytes_written).sum::<u64>() as f64,
    );
    report.set("store.hits", warm.store.hits() as f64);
    report.set(
        "store.bytes_read",
        all_io().map(|io| io.bytes_read).sum::<u64>() as f64,
    );
    let (user, sys) = (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1);
    report.set("cpu.sys_share", sys / (user + sys).max(1e-9));
    for name in [
        "fleet.simulations",
        "fleet.extend_simulations",
        "fleet.prefix_simulations",
    ] {
        report.set(name, 0.0);
    }
    crate::serving::probe(ctx, &cold.data, report);
}

/// `ErrorSim` runs behind a campaign: one per WER cell, one per PUE repeat.
fn error_sim_runs(data: &CampaignData) -> u64 {
    data.rows
        .iter()
        .map(|r| u64::from(r.wer_run.is_some()) + r.pue_runs.len() as u64)
        .sum()
}

/// Mean WER of the non-crashed runs at one operating point.
fn mean_wer(data: &CampaignData, trefp: f64, temp: f64) -> f64 {
    let vals: Vec<f64> = data
        .rows
        .iter()
        .filter(|r| (r.op.trefp_s - trefp).abs() < 1e-9 && r.op.temp_c == temp)
        .filter_map(|r| r.wer_run.as_ref())
        .filter(|run| !run.crashed)
        .map(|run| run.wer)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Mean PUE at 70 °C and one refresh period.
fn mean_pue(data: &CampaignData, trefp: f64) -> f64 {
    let vals: Vec<f64> = data
        .rows
        .iter()
        .filter(|r| {
            (r.op.trefp_s - trefp).abs() < 1e-9 && r.op.temp_c == 70.0 && !r.pue_runs.is_empty()
        })
        .map(|r| r.pue())
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

fn check_outputs(report: &mut Report, cold: &Pass, warm: &Pass) {
    let data = &cold.data;
    // Table II: per-config reuse time within 25 % of the paper.
    let mut worst: f64 = 0.0;
    let mut found = 0;
    for (name, paper) in PAPER_TREUSE {
        if let Some(row) = data.rows.iter().find(|r| r.workload == *name) {
            found += 1;
            worst = worst.max(((row.features.get(schema::TREUSE) - paper) / paper).abs());
        }
    }
    report.check(
        found == PAPER_TREUSE.len(),
        "Table II: a paper config is missing from the campaign",
    );
    report.check(
        worst <= 0.25,
        format!(
            "Table II: Treuse deviates {:.0}% from the paper",
            worst * 100.0
        ),
    );

    // Fig. 7: exponential growth with TREFP and temperature, workload spread.
    let growth = mean_wer(data, 2.283, 60.0) / mean_wer(data, 1.173, 60.0).max(1e-300);
    report.check(
        growth >= 10.0,
        format!("Fig. 7: WER grows only x{growth:.1} from 1.173 s to 2.283 s"),
    );
    let temp = mean_wer(data, 2.283, 60.0) / mean_wer(data, 2.283, 50.0).max(1e-300);
    report.check(
        temp >= 5.0,
        format!("Fig. 7: WER grows only x{temp:.1} from 50 to 60 °C"),
    );
    let wers: Vec<f64> = data
        .rows
        .iter()
        .filter(|r| (r.op.trefp_s - 2.283).abs() < 1e-9 && r.op.temp_c == 60.0)
        .filter_map(|r| r.wer_run.as_ref())
        .map(|run| run.wer)
        .filter(|w| *w > 0.0)
        .collect();
    let spread = wers.iter().copied().fold(f64::MIN, f64::max)
        / wers.iter().copied().fold(f64::MAX, f64::min);
    report.check(
        spread >= 3.0,
        format!("Fig. 7: workload spread only x{spread:.1}"),
    );

    // Fig. 9: mean PUE at 70 °C does not fall as TREFP grows.
    let pues: Vec<f64> = [1.450, 1.727, 2.283]
        .iter()
        .map(|&t| mean_pue(data, t))
        .collect();
    report.check(
        pues.windows(2).all(|w| w[0] <= w[1]),
        format!("Fig. 9: mean PUE at 70 °C decreases with TREFP: {pues:?}"),
    );

    // Table I: SECDED corrects every single flip, detects every double flip.
    let codec = Secded::new();
    let word = codec.encode(0xDEAD_BEEF);
    let singles = (0..72u8)
        .filter(|&l| {
            matches!(
                codec.decode(word.with_flipped(l)),
                DecodeOutcome::Corrected { .. }
            )
        })
        .count();
    let doubles = (0..72u8)
        .flat_map(|a| ((a + 1)..72).map(move |b| (a, b)))
        .filter(|&(a, b)| {
            codec.decode(word.with_flipped(a).with_flipped(b))
                == DecodeOutcome::DetectedUncorrectable
        })
        .count();
    report.check(
        singles == 72,
        format!("Table I: {singles}/72 single flips corrected"),
    );
    report.check(
        doubles == 2556,
        format!("Table I: {doubles}/2556 double flips detected"),
    );

    // The warm pass reads back exactly what the cold pass wrote, doing no work.
    report.check(
        warm.data.to_json().ok() == data.to_json().ok(),
        "warm campaign JSON differs from the cold pass",
    );
    report.check(
        grid_digest(&warm.grid) == grid_digest(&cold.grid),
        "warm EvalGrid reports differ",
    );
    report.check(
        warm.grid.trainings() == 0,
        format!("warm pass trained {} models", warm.grid.trainings()),
    );
    report.check(
        warm.cache.misses() == 0,
        format!("warm pass profiled {} kernels", warm.cache.misses()),
    );
    report.check(
        warm.store.writes() == 0,
        format!("warm pass wrote {} artifacts", warm.store.writes()),
    );
    report.check(cold.grid.trainings() > 0, "cold pass trained no models");
}
