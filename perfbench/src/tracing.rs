//! Spans, store I/O counting and the attribution of phase time to layers.
//!
//! The traced run times the same phases as the untraced run, from the
//! benchmark's side of each crate's public API. A phase that runs on the
//! pool hides its layers from an outside timer, so their shares come from
//! isolated re-runs made after the phases (outside the traced total):
//!
//! * profiling: each kernel of the suite runs into a counting sink
//!   (emission), a lone `Tracer`, a lone `Soc`, then
//!   `SimulatedServer::profile_workload`; feature extraction is timed on
//!   the resulting reports;
//! * the store: every artifact a phase read is read again with
//!   `ArtifactStore::get`, every artifact it wrote is written again with
//!   `ArtifactStore::put` into a scratch store.
//!
//! Those re-runs give each layer's CPU seconds. [`Layers::phase`] turns
//! them into wall seconds: a phase of wall `W` whose process used `C` CPU
//! seconds gives a layer of `b` CPU seconds `W · b / max(C, Σb)`. Child
//! spans that run alone on the calling thread count their wall time
//! directly. What remains of the phase goes to the phase's owner layer, so
//! the layer times of a run plus its glue (`unattributed_s`) add up to
//! the traced total.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use wade_core::{pool, AnyModel, CampaignData, ProfiledWorkload, SimulatedServer};
use wade_features::{extract, ExtractionContext};
use wade_fleet::FleetSlice;
use wade_memsys::Soc;
use wade_store::{ArtifactStore, DirEntryInfo, RealFs, StoreFs};
use wade_trace::{AccessSink, MemAccess, StagedAccess, Tracer};
use wade_workloads::BoxedWorkload;

use crate::host;
use crate::metrics::{Report, LAYER_TIMES};

/// Wall and process-CPU seconds of one span.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the whole process (all threads) over the span.
    pub cpu_s: f64,
}

/// A running span.
pub struct Clock {
    started: Instant,
    cpu0: f64,
}

impl Clock {
    /// Starts a span.
    pub fn start() -> Self {
        let (user, sys) = host::process_cpu();
        Self {
            started: Instant::now(),
            cpu0: user + sys,
        }
    }

    /// Ends the span.
    pub fn stop(&self) -> Sample {
        let wall_s = self.started.elapsed().as_secs_f64();
        let (user, sys) = host::process_cpu();
        Sample {
            wall_s,
            cpu_s: (user + sys - self.cpu0).max(0.0),
        }
    }
}

/// Runs `f` as one span.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let clock = Clock::start();
    let out = f();
    (out, clock.stop())
}

/// Set-up batches per run, and set-ups per batch.
const SETUP_BATCHES: usize = 25;
const SETUPS_PER_BATCH: usize = 200;

/// Times a workload's set-up. One set-up takes microseconds, too short to
/// time alone with a steady result, so it is built in `SETUP_BATCHES`
/// batches of `SETUPS_PER_BATCH`; the set-up time is the median over the
/// batches of a batch's mean. Returns one more set-up, the set-up time
/// and the span of all of them.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64, Sample) {
    let clock = Clock::start();
    let mut means = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let t = Instant::now();
        for _ in 0..SETUPS_PER_BATCH {
            black_box(build());
        }
        means.push(t.elapsed().as_secs_f64() / SETUPS_PER_BATCH as f64);
    }
    let built = build();
    (built, median(&means), clock.stop())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer wall seconds of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    times: BTreeMap<&'static str, f64>,
    total_s: f64,
    spans: u64,
}

impl Layers {
    /// Adds wall seconds to a layer.
    fn add(&mut self, layer: &'static str, s: f64) {
        debug_assert!(LAYER_TIMES.contains(&layer), "unknown layer {layer}");
        *self.times.entry(layer).or_default() += s;
    }

    /// Splits one phase among layers: `children` ran alone on the calling
    /// thread and count their wall time; `busy` are isolated CPU seconds,
    /// scaled onto the rest of the phase; `owner` gets what remains.
    pub fn phase(
        &mut self,
        sample: Sample,
        children: &[(&'static str, Sample)],
        busy: &[(&'static str, f64)],
        owner: &'static str,
    ) {
        self.total_s += sample.wall_s;
        self.spans += 1 + children.len() as u64;
        let mut wall = sample.wall_s;
        let mut cpu = sample.cpu_s;
        for &(layer, child) in children {
            self.add(layer, child.wall_s);
            wall -= child.wall_s;
            cpu -= child.cpu_s;
        }
        let wall = wall.max(0.0);
        let busy_sum: f64 = busy.iter().map(|&(_, b)| b).sum();
        let denom = cpu.max(busy_sum);
        let mut used = 0.0;
        if denom > 0.0 {
            for &(layer, b) in busy {
                let share = wall * b / denom;
                self.add(layer, share);
                used += share;
            }
        }
        self.add(owner, (wall - used).max(0.0));
    }

    /// Time of the run outside every phase (the benchmark's own glue).
    pub fn glue(&mut self, sample: Sample) {
        self.total_s += sample.wall_s;
        self.spans += 1;
    }

    /// Wall seconds attributed to `layer` so far.
    pub fn get(&self, layer: &str) -> f64 {
        self.times.get(layer).copied().unwrap_or(0.0)
    }

    /// Sets every layer time, `unattributed_s`, `traced_total_s` and
    /// `tracing_overhead_s` (the recorder's own cost: spans and store
    /// calls counted, times a measured cost per operation).
    pub fn write(&self, report: &mut Report, io_calls: u64) {
        let mut attributed = 0.0;
        for &layer in LAYER_TIMES {
            let s = self.get(layer);
            attributed += s;
            report.set(layer, s);
        }
        report.set("unattributed_s", self.total_s - attributed);
        report.set("traced_total_s", self.total_s);
        let (span_cost, io_cost) = recorder_costs();
        report.set(
            "tracing_overhead_s",
            self.spans as f64 * span_cost + io_calls as f64 * io_cost,
        );
    }
}

/// Measured cost of one span (two clock and two `/proc` reads) and of
/// one counted store call (a locked tally update).
fn recorder_costs() -> (f64, f64) {
    const N: u32 = 200;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Clock::start().stop());
    }
    let span = t.elapsed().as_secs_f64() / f64::from(N);
    let log = IoLog::default();
    let t = Instant::now();
    for i in 0..N * 50 {
        log.note(|tally| tally.bytes_read += black_box(u64::from(i & 1)));
    }
    (span, t.elapsed().as_secs_f64() / f64::from(N * 50))
}

// ---- store I/O -----------------------------------------------------------

/// What a [`CountingFs`] saw since the last [`IoLog::take`].
#[derive(Debug, Default)]
pub struct IoTally {
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written (temp files, before their rename).
    pub bytes_written: u64,
    /// Store calls of any kind.
    pub calls: u64,
    /// Entries read, in order.
    pub read_paths: Vec<PathBuf>,
    /// Entries published (rename targets), in order.
    pub written_paths: Vec<PathBuf>,
}

/// Shared tally of a [`CountingFs`].
#[derive(Debug, Default)]
pub struct IoLog {
    tally: Mutex<IoTally>,
}

impl IoLog {
    fn note(&self, f: impl FnOnce(&mut IoTally)) {
        let mut tally = self.tally.lock().expect("I/O tally poisoned");
        tally.calls += 1;
        f(&mut tally);
    }

    /// Returns the tally so far and starts a new one.
    pub fn take(&self) -> IoTally {
        std::mem::take(&mut *self.tally.lock().expect("I/O tally poisoned"))
    }
}

/// The real filesystem, counting what the store reads and writes.
#[derive(Debug)]
pub struct CountingFs {
    log: Arc<IoLog>,
}

impl CountingFs {
    /// A counting filesystem reporting into `log`.
    pub fn new(log: Arc<IoLog>) -> Self {
        Self { log }
    }
}

impl StoreFs for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let out = RealFs.read(path);
        self.log.note(|t| {
            if let Ok(bytes) = &out {
                t.bytes_read += bytes.len() as u64;
                t.read_paths.push(path.to_path_buf());
            }
        });
        out
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let out = RealFs.write(path, data);
        self.log.note(|t| t.bytes_written += data.len() as u64);
        out
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let out = RealFs.rename(from, to);
        self.log.note(|t| {
            if out.is_ok() {
                t.written_paths.push(to.to_path_buf());
            }
        });
        out
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.log.note(|_| {});
        RealFs.remove_file(path)
    }

    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        self.log.note(|_| {});
        RealFs.remove_dir(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.log.note(|_| {});
        RealFs.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<DirEntryInfo>> {
        self.log.note(|_| {});
        RealFs.read_dir(path)
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        self.log.note(|_| {});
        RealFs.modified(path)
    }

    fn accessed(&self, path: &Path) -> io::Result<SystemTime> {
        self.log.note(|_| {});
        RealFs.accessed(path)
    }
}

/// Isolated re-runs of store reads and writes.
pub struct StoreReplay<'a> {
    store: &'a ArtifactStore,
    scratch: ArtifactStore,
    scratch_dir: PathBuf,
    entries: HashMap<PathBuf, (String, String)>,
}

impl<'a> StoreReplay<'a> {
    /// Indexes `store`'s entries; rewrites go to a scratch store in
    /// `scratch_dir`, removed on drop.
    pub fn new(store: &'a ArtifactStore, scratch_dir: PathBuf) -> Self {
        let entries = store
            .ls()
            .into_iter()
            .filter_map(|meta| meta.key.map(|key| (meta.path, (meta.kind, key))))
            .collect();
        let _ = std::fs::remove_dir_all(&scratch_dir);
        Self {
            store,
            scratch: ArtifactStore::open(&scratch_dir),
            scratch_dir,
            entries,
        }
    }

    /// CPU seconds of reading (`write == false`) or writing every distinct
    /// entry in `paths` again, one at a time.
    pub fn busy(&self, paths: &[PathBuf], write: bool) -> f64 {
        let mut seen = HashSet::new();
        let mut total = 0.0;
        for path in paths {
            if !seen.insert(path) {
                continue;
            }
            let Some((kind, key)) = self.entries.get(path) else {
                continue;
            };
            total += match kind.as_str() {
                "profile" => self.replay::<ProfiledWorkload>(kind, key, write),
                "campaign" => self.replay::<CampaignData>(kind, key, write),
                "model" => self.replay::<AnyModel>(kind, key, write),
                "fleet_slice" => self.replay::<FleetSlice>(kind, key, write),
                _ => 0.0,
            };
        }
        total
    }

    fn replay<T: serde::Serialize + serde::Deserialize>(
        &self,
        kind: &str,
        key: &str,
        write: bool,
    ) -> f64 {
        let started = Instant::now();
        let Some(value) = self.store.get::<T>(kind, key) else {
            return 0.0;
        };
        if !write {
            return started.elapsed().as_secs_f64();
        }
        let started = Instant::now();
        let _ = self.scratch.put(kind, key, &value);
        started.elapsed().as_secs_f64()
    }
}

impl Drop for StoreReplay<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch_dir);
    }
}

// ---- profiling -------------------------------------------------------------

/// A sink that only counts the accesses it is handed.
#[derive(Default)]
struct CountingSink {
    accesses: u64,
}

impl AccessSink for CountingSink {
    fn on_access(&mut self, _access: MemAccess) {
        self.accesses += 1;
    }

    fn on_instructions(&mut self, _count: u64) {}

    fn on_accesses(&mut self, batch: &[StagedAccess]) {
        self.accesses += black_box(batch).len() as u64;
    }
}

/// Isolated CPU seconds of each profiling layer over a suite.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfilingBusy {
    /// Kernel emission into a counting sink.
    pub emit_s: f64,
    /// Lone tracer run minus emission.
    pub tracer_s: f64,
    /// Lone SoC-model run minus emission.
    pub soc_s: f64,
    /// Feature extraction on the profile's reports.
    pub extract_s: f64,
    /// Whole `profile_workload` runs.
    pub profile_s: f64,
    /// Accesses the kernels emitted.
    pub accesses: u64,
    /// Kernels whose emitted access count differs from their profile's.
    pub mismatched: u64,
}

impl ProfilingBusy {
    /// The busy list of a profiling phase: the layers, plus what
    /// `profile_workload` spends beyond them (fan-out, summary) as
    /// `core.profile_s`. Together they are the isolated profiling time.
    pub fn busy(&self) -> [(&'static str, f64); 5] {
        let layers = self.emit_s + self.tracer_s + self.soc_s + self.extract_s;
        [
            ("workloads.emit_s", self.emit_s),
            ("trace.self_s", self.tracer_s),
            ("memsys.self_s", self.soc_s),
            ("features.extract_s", self.extract_s),
            ("core.profile_s", (self.profile_s - layers).max(0.0)),
        ]
    }

    /// Sets the access count and the per-access layer costs.
    pub fn write(&self, report: &mut Report) {
        let per_access = |s: f64| s * 1e9 / self.accesses.max(1) as f64;
        report.set("workloads.accesses", self.accesses as f64);
        report.set("trace.ns_per_access", per_access(self.tracer_s));
        report.set("memsys.ns_per_access", per_access(self.soc_s));
    }
}

/// Re-runs every kernel of `suite` (seeded by `seed_of(index)`) through
/// each profiling layer alone, kernels fanned out over the pool as the
/// profiling phase does. `profiled[i]` is the access count of the profile
/// the workload itself made of kernel `i`: a kernel whose re-run emits
/// another count (other inputs than the workload profiled) counts as
/// mismatched.
pub fn isolate_profiling(
    server: &SimulatedServer,
    suite: &[BoxedWorkload],
    seed_of: impl Fn(usize) -> u64 + Sync,
    profiled: &[u64],
) -> ProfilingBusy {
    assert_eq!(suite.len(), profiled.len(), "one profile per kernel");
    let per_kernel = pool::fan_out(
        suite.iter().zip(profiled).enumerate().collect(),
        |(i, (w, &expected))| {
            let seed = seed_of(i);
            let t = Instant::now();
            let mut counter = CountingSink::default();
            w.run_buffered(&mut counter, seed);
            let emit = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let mut tracer = Tracer::new();
            w.run_buffered(&mut tracer, seed);
            black_box(tracer.report());
            let traced = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let mut soc = Soc::new(*server.soc_config());
            w.run_buffered(&mut soc, seed);
            black_box(soc.report());
            let soc_run = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let profiled = server.profile_workload(w.as_ref(), seed);
            let profile = t.elapsed().as_secs_f64();

            let deploy = w.deploy_scale();
            let ctx = ExtractionContext {
                deploy_footprint_words: deploy.footprint_words,
                reuse_scale: deploy.reuse_scale,
            };
            const EXTRACTS: u32 = 20;
            let t = Instant::now();
            for _ in 0..EXTRACTS {
                black_box(extract(&profiled.soc, &profiled.trace, &ctx));
            }
            let extract_s = t.elapsed().as_secs_f64() / f64::from(EXTRACTS);

            let matches =
                counter.accesses == profiled.trace.mem_accesses && counter.accesses == expected;
            (
                emit,
                traced,
                soc_run,
                profile,
                extract_s,
                counter.accesses,
                matches,
            )
        },
    );
    let mut out = ProfilingBusy::default();
    for (emit, traced, soc_run, profile, extract_s, accesses, matches) in per_kernel {
        out.emit_s += emit;
        out.tracer_s += (traced - emit).max(0.0);
        out.soc_s += (soc_run - emit).max(0.0);
        out.extract_s += extract_s;
        out.profile_s += profile;
        out.accesses += accesses;
        out.mismatched += u64::from(!matches);
    }
    out
}
