//! The multi-BSS fleet: shard-by-BSS parallel execution with a
//! deterministic, input-order merge.
//!
//! Every BSS runs as an independent shard (its seeds derive from the
//! fleet seed and its index, never from thread identity), producing a
//! [`BssReport`] and a private [`Recorder`]. The shards are merged in
//! BSS-index order, so the aggregate counters, histograms, and energy
//! sums — and the JSON they serialize to — are byte-identical at any
//! `--jobs` count.
//!
//! Every entry point is a short call into one private driver,
//! `FleetConfig::drive`; they differ only in their per-shard sinks.

use crate::bss::{run_bss, BssReport};
use crate::churn::ChurnConfig;
use crate::error::FleetError;
use crate::profile::{FleetStage, StageProfile};
use hide_energy::attribution::{
    metrics_section_for, write_csv_row, write_jsonl_row, AttributionLedger, ClientEnergy,
    ATTRIBUTION_CSV_HEADER,
};
use hide_energy::battery::Battery;
use hide_energy::profile::{DeviceProfile, NEXUS_ONE};
use hide_obs::spill::{KWayMerge, RunReader, SpillError, SpillIndex, SpillWriter};
use hide_obs::{FlightRecorder, NoopSpans, NoopTrace, Recorder, SpanSink, Stage, TraceSink};
use hide_policy::{LifetimeProjection, WakePolicy};
use hide_traces::scenario::Scenario;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::ScopedJoinHandle;
use std::time::Instant;

/// Full description of a fleet experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of independent BSSes (APs) in the fleet.
    pub bss_count: usize,
    /// Clients per BSS.
    pub clients_per_bss: usize,
    /// Fraction of clients running HIDE, clamped to `[0, 1]`.
    pub adoption: f64,
    /// Simulated horizon per BSS, seconds.
    pub duration_secs: f64,
    /// Broadcast traffic scenario every BSS draws from (each BSS gets
    /// its own decorrelated stream).
    pub scenario: Scenario,
    /// Device energy constants shared by every client.
    pub profile: DeviceProfile,
    /// Master seed; all per-BSS randomness derives from it.
    pub seed: u64,
    /// Client lifecycle knobs.
    pub churn: ChurnConfig,
    /// Power-save protocol suspended clients run. The default
    /// ([`WakePolicy::Hide`]) reproduces the pre-seam engine
    /// byte-for-byte; the other policies force every client legacy
    /// (no port refreshes) and change only the wake decision.
    pub policy: WakePolicy,
    /// Battery the lifetime projection extrapolates onto.
    pub battery: Battery,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            bss_count: 4,
            clients_per_bss: 16,
            adoption: 0.75,
            duration_secs: 30.0,
            scenario: Scenario::Starbucks,
            profile: NEXUS_ONE,
            seed: 42,
            churn: ChurnConfig::default(),
            policy: WakePolicy::Hide,
            battery: Battery::NEXUS_ONE,
        }
    }
}

impl FleetConfig {
    /// Checks the whole configuration, including the device profile and
    /// the churn model.
    ///
    /// # Errors
    ///
    /// Returns the [`FleetError`] naming the first offending knob.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.bss_count == 0 {
            return Err(FleetError::NoBsses);
        }
        if self.clients_per_bss == 0 {
            return Err(FleetError::NoClients);
        }
        if !(self.duration_secs.is_finite() && self.duration_secs > 0.0) {
            return Err(FleetError::InvalidDuration(self.duration_secs));
        }
        if self.adoption.is_nan() {
            return Err(FleetError::InvalidProbability {
                what: "adoption",
                value: self.adoption,
            });
        }
        if !self.profile.is_consistent() {
            return Err(FleetError::InconsistentProfile(self.profile.name));
        }
        self.churn.validate()
    }

    /// Runs the fleet with the process-default jobs count.
    ///
    /// # Errors
    ///
    /// Returns a validation error before any work starts, or the first
    /// shard's protocol failure.
    pub fn try_run(&self) -> Result<FleetResult, FleetError> {
        self.try_run_with_jobs(hide_par::default_jobs())
    }

    /// Runs the fleet on exactly `jobs` worker threads (`0` or `1`
    /// runs inline). The result is byte-identical for every `jobs`
    /// value.
    ///
    /// # Errors
    ///
    /// Returns a validation error before any work starts, or the first
    /// (lowest-index) shard's protocol failure.
    pub fn try_run_with_jobs(&self, jobs: usize) -> Result<FleetResult, FleetError> {
        let (result, NoopSpans) =
            self.drive(jobs, self.bss_count, |_| NoopTrace, None, |_| Ok(()))?;
        Ok(result)
    }

    /// [`try_run_with_jobs`](Self::try_run_with_jobs) with per-stage
    /// wall-time profiling on: every shard times its kernel's event
    /// loop into a private [`StageProfile`], fanned in alongside the
    /// reports. Profiling never touches the metrics artifact — the
    /// returned [`FleetResult`] is byte-identical to the unprofiled
    /// run's — but the run itself is a little slower (two timer reads
    /// per kernel event), so the default paths stay on
    /// [`NoopSpans`].
    ///
    /// # Errors
    ///
    /// Returns a validation error before any work starts, or the first
    /// (lowest-index) shard's protocol failure.
    pub fn try_run_profiled_with_jobs(
        &self,
        jobs: usize,
    ) -> Result<(FleetResult, StageProfile), FleetError> {
        self.drive(jobs, self.bss_count, |_| NoopTrace, None, |_| Ok(()))
    }

    /// [`try_run_with_jobs`](Self::try_run_with_jobs) with the flight
    /// recorder on: every shard records its kernel's structured events
    /// into a private [`FlightRecorder`] (source lane = BSS index,
    /// `capacity` events retained per shard), and the per-shard logs
    /// are merged in one pass under the total `(time, source, seq)`
    /// order ([`FlightRecorder::merged`]) — so the returned log, and
    /// anything exported from it, is byte-identical at any `jobs`
    /// count. The [`FleetResult`] itself is identical to the untraced
    /// run's.
    ///
    /// # Errors
    ///
    /// Returns a validation error before any work starts, or the first
    /// (lowest-index) shard's protocol failure.
    pub fn try_run_traced_with_jobs(
        &self,
        jobs: usize,
        capacity: usize,
    ) -> Result<(FleetResult, FlightRecorder), FleetError> {
        let mut flight = None;
        let (result, NoopSpans) = self.drive(
            jobs,
            self.bss_count,
            |i| shard_log(i, capacity),
            None,
            |logs| {
                flight = Some(FlightRecorder::merged(logs));
                Ok(())
            },
        )?;
        Ok((result, flight.expect("one window spans every shard")))
    }

    /// [`try_run_traced_with_jobs`](Self::try_run_traced_with_jobs)
    /// rebuilt for metro scale: instead of holding every shard's
    /// flight log and attribution rows until the end, the fleet runs
    /// in **windows** of consecutive BSS indices. Each window fans out
    /// over `jobs` workers; its attribution rows stream straight into
    /// the optional `sinks` (shard keys are disjoint and ascending, so
    /// concatenation equals the merged ledger's export), and its logs
    /// pass to one scoped spill thread, which merges them in one k-way
    /// pass straight into a spill file as one sorted run
    /// ([`SpillWriter::write_merged_run`]) while the next window
    /// simulates. Resident memory is bounded by two windows — not the
    /// fleet — and the trace exports are produced afterwards by a
    /// chunked k-way merge over the spilled runs
    /// ([`StreamedFleetResult::write_trace_jsonl`]).
    ///
    /// Determinism: `(time, source, seq)` is a strict total order, so
    /// the k-way merge over the spilled runs pops the same sequence the
    /// in-memory merge produces, at any `jobs`, window, or chunk size —
    /// every exported byte matches the in-memory path (pinned by
    /// `crates/bench/tests/stream_differential.rs`).
    ///
    /// # Errors
    ///
    /// Returns a validation error before any work starts, the first
    /// (lowest-index) shard's protocol failure, or a
    /// [`FleetError::Export`] if spilling or a sink write fails. The
    /// spill file is removed on error.
    pub fn try_run_streamed_with_jobs(
        &self,
        jobs: usize,
        stream: &StreamExportConfig,
        mut sinks: StreamSinks<'_>,
    ) -> Result<StreamedFleetResult, FleetError> {
        // Validate before touching the disk.
        self.validate()?;
        std::fs::create_dir_all(&stream.spill_dir).map_err(export_err)?;
        let spill_path = stream.spill_dir.join(unique_spill_name());
        let out = self.run_streamed(jobs, stream, &mut sinks, &spill_path);
        if out.is_err() {
            let _ = std::fs::remove_file(&spill_path);
        }
        out
    }

    fn run_streamed(
        &self,
        jobs: usize,
        stream: &StreamExportConfig,
        sinks: &mut StreamSinks<'_>,
        spill_path: &std::path::Path,
    ) -> Result<StreamedFleetResult, FleetError> {
        let window = match stream.window {
            0 => (4 * jobs.max(1)).max(64),
            w => w,
        };
        let mut writer = SpillWriter::create(spill_path, stream.chunk_events)?;
        if let Some(csv) = sinks.attribution_csv.as_deref_mut() {
            csv.write_all(ATTRIBUTION_CSV_HEADER.as_bytes())
                .map_err(export_err)?;
        }
        std::thread::scope(|scope| {
            // Each window's logs go over a rendezvous channel to the
            // spill thread, which merges them into one sorted run (the
            // window's events plus its shards' ring-bound drops) while
            // the next window simulates. A hand-off waits for the
            // previous run to finish, so at most two windows of logs
            // are resident.
            let (handoff, windows) = mpsc::sync_channel::<Vec<FlightRecorder>>(0);
            let spiller = scope.spawn(move || -> Result<SpillIndex, SpillError> {
                for mut logs in windows {
                    writer.write_merged_run(&mut logs)?;
                }
                writer.finish()
            });
            // A failed hand-off means the spill thread stopped; its own
            // error, joined below, is the one reported.
            let run = self.drive(
                jobs,
                window,
                |i| shard_log(i, stream.trace_capacity),
                Some(sinks),
                move |logs| {
                    handoff
                        .send(logs)
                        .map_err(|_| FleetError::Export("the spill thread stopped".into()))
                },
            );
            // `drive` has dropped the sender, so the spill thread
            // drains the last window and exits.
            let spill = joined(spiller)?;
            let (result, NoopSpans) = run?;
            Ok(StreamedFleetResult { result, spill })
        })
    }

    /// The one fan-out/fold pipeline behind every entry point.
    ///
    /// Runs the shards in windows of `window` consecutive BSS indices,
    /// each window fanned out over `jobs` workers with a private trace
    /// log (`new_log(i)`) and profiler per shard, and folds every shard
    /// in index order: reports, recorders, profiles and energy totals
    /// add up; the attribution rows merge into the report's ledger, or
    /// — with `sinks` — stream out and leave memory; and the window's
    /// logs, in index order, go to `on_window`, which merges them or
    /// hands them to the spill thread. The folds and `on_window`
    /// together make the run's one `FleetMerge` span.
    ///
    /// With [`NoopTrace`] and [`NoopSpans`] the per-shard state is
    /// zero-sized, so the untraced run allocates no log or profile.
    fn drive<T, P>(
        &self,
        jobs: usize,
        window: usize,
        new_log: impl Fn(usize) -> T + Sync,
        mut sinks: Option<&mut StreamSinks<'_>>,
        mut on_window: impl FnMut(Vec<T>) -> Result<(), FleetError>,
    ) -> Result<(FleetResult, P), FleetError>
    where
        T: TraceSink + Send,
        P: SpanSink<FleetStage> + Default + Send,
    {
        self.validate()?;
        let mut report = BssReport::default();
        let mut recorder = Recorder::new();
        let mut profile = P::default();
        let (mut energy_totals, mut energy_clients) = (ClientEnergy::default(), 0);
        let mut lane = String::new();
        let mut merge_nanos = 0u64;
        let mut start = 0usize;
        while start < self.bss_count {
            let end = (start + window).min(self.bss_count);
            let indices: Vec<usize> = (start..end).collect();
            let shards = hide_par::par_map_jobs(jobs, &indices, |_, &i| {
                let (mut log, mut prof) = (new_log(i), P::default());
                run_bss(self, i, &mut log, &mut prof).map(|(bss, rec)| (bss, rec, log, prof))
            });

            let merge_start = Instant::now();
            let mut logs = Vec::with_capacity(indices.len());
            for shard in shards {
                let (mut bss, rec, log, prof) = shard?;
                energy_totals.merge_from(&bss.attribution.totals());
                energy_clients += bss.attribution.len();
                if let Some(sinks) = sinks.as_deref_mut() {
                    let ledger = std::mem::take(&mut bss.attribution);
                    sinks.append(&ledger, &mut lane).map_err(export_err)?;
                }
                report.merge_from(&bss);
                recorder.merge_from(&rec);
                profile.merge_from(&prof);
                logs.push(log);
            }
            on_window(logs)?;
            merge_nanos += merge_start.elapsed().as_nanos() as u64;
            start = end;
        }
        // One FleetMerge span per run, however many windows: the
        // artifact serializes stage *call counts*.
        recorder.add_span(Stage::FleetMerge, merge_nanos);
        profile.add_span(FleetStage::Merge, merge_nanos);
        let result = FleetResult::assemble(self, report, recorder, energy_totals, energy_clients)?;
        Ok((result, profile))
    }
}

/// A fresh per-shard flight recorder on the shard's source lane.
fn shard_log(bss_index: usize, capacity: usize) -> FlightRecorder {
    let mut flight = FlightRecorder::with_capacity(capacity);
    flight.set_source(bss_index as u32);
    flight
}

/// Knobs of the out-of-core streamed export
/// ([`FleetConfig::try_run_streamed_with_jobs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamExportConfig {
    /// Directory the spill file is created in (created if missing).
    pub spill_dir: PathBuf,
    /// Events per framed spill chunk — the unit of both write
    /// batching and merge-time residency (the k-way merge holds one
    /// decoded chunk per run).
    pub chunk_events: usize,
    /// Consecutive BSS shards per window: the bound on resident shard
    /// state, and the number of runs is `ceil(bss_count / window)`.
    /// `0` picks `max(64, 4 × jobs)`.
    pub window: usize,
    /// Per-shard flight-recorder ring capacity (events retained before
    /// the oldest drop), as in
    /// [`try_run_traced_with_jobs`](FleetConfig::try_run_traced_with_jobs).
    pub trace_capacity: usize,
}

impl StreamExportConfig {
    /// Defaults for everything but the spill directory.
    #[must_use]
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        StreamExportConfig {
            spill_dir: spill_dir.into(),
            chunk_events: hide_obs::DEFAULT_CHUNK_EVENTS,
            window: 0,
            trace_capacity: hide_obs::DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Optional writers the streamed run feeds *during* execution — the
/// attribution lanes, whose rows leave memory shard by shard.
#[derive(Default)]
pub struct StreamSinks<'a> {
    /// Destination for the attribution CSV (header + one row per
    /// client lane), byte-identical to
    /// [`AttributionLedger::to_csv`](hide_energy::AttributionLedger::to_csv).
    pub attribution_csv: Option<&'a mut dyn io::Write>,
    /// Destination for the attribution JSONL, byte-identical to
    /// [`AttributionLedger::to_jsonl`](hide_energy::AttributionLedger::to_jsonl).
    pub attribution_jsonl: Option<&'a mut dyn io::Write>,
}

impl StreamSinks<'_> {
    /// Appends one shard's rows to every open lane, rendered through
    /// `buf`. Row keys are `(bss_index, aid)`, disjoint and ascending
    /// across shards, so appending shard by shard yields the exact
    /// bytes the merged ledger would export.
    fn append(&mut self, ledger: &AttributionLedger, buf: &mut String) -> io::Result<()> {
        if let Some(csv) = self.attribution_csv.as_deref_mut() {
            buf.clear();
            for (key, e) in ledger.rows() {
                write_csv_row(buf, *key, e);
            }
            csv.write_all(buf.as_bytes())?;
        }
        if let Some(jsonl) = self.attribution_jsonl.as_deref_mut() {
            buf.clear();
            for (key, e) in ledger.rows() {
                write_jsonl_row(buf, *key, e);
            }
            jsonl.write_all(buf.as_bytes())?;
        }
        Ok(())
    }
}

fn export_err(e: io::Error) -> FleetError {
    FleetError::Export(e.to_string())
}

/// Joins a scoped thread, re-raising its panic on this thread.
fn joined<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Bytes per block the render thread hands to the writing thread.
const RENDER_BLOCK_BYTES: usize = 256 * 1024;

/// Filled blocks queued between the render thread and the writing
/// thread. With the block being filled and the block being written, at
/// most `RENDER_BLOCKS_QUEUED + 2` blocks exist at once.
const RENDER_BLOCKS_QUEUED: usize = 4;

/// The render thread's writer: fills fixed-size blocks and hands each
/// full one to the writing thread, reusing the blocks it hands back.
struct BlockWriter {
    block: Vec<u8>,
    full: mpsc::SyncSender<Vec<u8>>,
    spare: mpsc::Receiver<Vec<u8>>,
}

impl io::Write for BlockWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(RENDER_BLOCK_BYTES - self.block.len());
        self.block.extend_from_slice(&buf[..n]);
        if self.block.len() == RENDER_BLOCK_BYTES {
            self.flush()?;
        }
        Ok(n)
    }

    /// Hands the current block over, if it holds anything.
    fn flush(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let fresh = self
            .spare
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(RENDER_BLOCK_BYTES));
        let block = std::mem::replace(&mut self.block, fresh);
        self.full
            .send(block)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "the trace writer stopped"))
    }
}

fn unique_spill_name() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("hide-spill-{}-{n}.bin", std::process::id())
}

/// Outcome of a streamed fleet run: the aggregate [`FleetResult`] plus
/// the spilled trace runs the exporters stream from.
///
/// `result.report.attribution` is intentionally **empty** — the rows
/// left memory through the [`StreamSinks`] as the fleet ran — while
/// `result`'s energy totals, and so its `"energy"` metrics section,
/// are exactly the in-memory run's.
#[derive(Debug)]
pub struct StreamedFleetResult {
    /// The assembled fleet result (attribution ledger empty; see the
    /// struct docs).
    pub result: FleetResult,
    /// Index over the spilled trace runs; one file on disk.
    pub spill: SpillIndex,
}

impl StreamedFleetResult {
    /// Ring-bound drops across the whole fleet — the sum every spilled
    /// run carried, equal to the in-memory merged recorder's
    /// [`dropped`](FlightRecorder::dropped).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.spill.total_dropped()
    }

    /// Trace events spilled across the whole fleet.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.spill.total_events()
    }

    /// [`FleetResult::metrics_json_with_energy`] of the streamed run.
    #[must_use]
    pub fn metrics_json_with_energy(&self) -> String {
        self.result.metrics_json_with_energy()
    }

    /// Streams the merged trace as JSON Lines into `out`, holding one
    /// decoded chunk per spilled run. Byte-identical to
    /// [`hide_obs::export::to_jsonl`] over the in-memory merged log.
    /// Returns the number of events written. Callable repeatedly.
    ///
    /// The merge and render run on one scoped render thread, which
    /// hands fixed-size blocks of rendered bytes through a small
    /// bounded queue; the calling thread only writes them to `out`, so
    /// `out` need not be `Send` and a slow sink overlaps the render.
    ///
    /// # Errors
    ///
    /// Decode failures, and `out`'s own write error, surface as
    /// [`FleetError::Export`].
    pub fn write_trace_jsonl<W: io::Write>(&self, out: &mut W) -> Result<u64, FleetError> {
        self.render_overlapped(out, |merge, blocks| {
            hide_obs::export::stream_jsonl(merge, blocks)
        })
    }

    /// Streams the merged trace in Chrome trace format into `out`.
    /// Returns the number of simulation events written. Callable
    /// repeatedly. Overlapped like
    /// [`write_trace_jsonl`](Self::write_trace_jsonl).
    ///
    /// # Errors
    ///
    /// Decode failures, and `out`'s own write error, surface as
    /// [`FleetError::Export`].
    pub fn write_chrome_trace<W: io::Write>(&self, out: &mut W) -> Result<u64, FleetError> {
        self.render_overlapped(out, |merge, blocks| {
            hide_obs::export::stream_chrome_trace(merge, blocks)
        })
    }

    /// Runs `render` over the k-way merge of the spilled runs on one
    /// scoped render thread, which fills [`RENDER_BLOCK_BYTES`] blocks
    /// and queues at most [`RENDER_BLOCKS_QUEUED`] of them; this thread
    /// only writes blocks to `out`, so `out` need not be `Send`, and a
    /// slow sink overlaps the render instead of adding to it.
    ///
    /// Shutdown: when `out` fails, this thread stops receiving, the
    /// render thread's next hand-off fails and it returns; when the
    /// render fails, its sender drops and the receive loop ends. Either
    /// way the render thread is joined before returning, and `out`'s
    /// error takes precedence.
    fn render_overlapped<W: io::Write>(
        &self,
        out: &mut W,
        render: impl FnOnce(&mut KWayMerge<RunReader>, &mut BlockWriter) -> Result<u64, SpillError>
            + Send,
    ) -> Result<u64, FleetError> {
        // Opened here, so the merge's chunk buffers come from this
        // thread's allocator arena, which the run has already grown.
        let mut merge = self.spill.merge()?;
        std::thread::scope(|scope| {
            let (full, filled) = mpsc::sync_channel(RENDER_BLOCKS_QUEUED);
            let (recycle, spare) = mpsc::channel();
            let renderer = scope.spawn(move || {
                let mut blocks = BlockWriter {
                    block: Vec::with_capacity(RENDER_BLOCK_BYTES),
                    full,
                    spare,
                };
                let written = render(&mut merge, &mut blocks)?;
                blocks.flush()?;
                Ok::<_, SpillError>(written)
            });
            let mut failed = None;
            for mut block in filled.iter() {
                if let Err(e) = out.write_all(&block) {
                    failed = Some(e);
                    break;
                }
                block.clear();
                // The render thread may have returned already.
                let _ = recycle.send(block);
            }
            drop(filled);
            let rendered = joined(renderer);
            match failed {
                Some(e) => Err(export_err(e)),
                None => Ok(rendered?),
            }
        })
    }

    /// Deletes the spill file. Call when every export has been
    /// written; dropping the result does *not* remove it (callers may
    /// want the file for post-hoc analysis).
    ///
    /// # Errors
    ///
    /// Filesystem failure surfaces as [`FleetError::Export`].
    pub fn cleanup(&self) -> Result<(), FleetError> {
        std::fs::remove_file(&self.spill.path).map_err(export_err)
    }
}

/// Aggregated outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Field-wise sum of every BSS's tallies.
    pub report: BssReport,
    /// Fleet-wide fractional energy saving vs the receive-all baseline.
    pub fleet_saving: f64,
    /// Missed wakeups over useful opportunities (0 when no opportunity
    /// arose). The loss-free invariant: this is exactly 0 when
    /// `refresh_loss` is 0.
    pub missed_wakeup_rate: f64,
    /// Spurious wakeups over HIDE wakeups (0 when none occurred).
    pub spurious_wakeup_rate: f64,
    /// Share of total fleet airtime consumed by UDP Port Messages
    /// (Eq. 21): refresh airtime over `duration × bss_count`.
    pub port_message_airtime_share: f64,
    /// The wake policy the fleet ran.
    pub policy: WakePolicy,
    /// Battery-lifetime projection for the configured battery: the
    /// policy's average per-client draw extrapolated to standby
    /// seconds, against the receive-all baseline.
    pub lifetime: LifetimeProjection,
    /// Merged observability recorder (counters, histograms, stages).
    pub recorder: Recorder,
    /// Field-wise sum of every client lane's energy, folded shard by
    /// shard: the fleet's energy record, whose
    /// [`spent_nj`](ClientEnergy::spent_nj) is the energy spent. Every
    /// run carries it — also a streamed one, whose rows left memory —
    /// so the `"energy"` metrics section renders one way.
    pub energy_totals: ClientEnergy,
    /// Number of client lanes summed into
    /// [`energy_totals`](Self::energy_totals).
    pub energy_clients: usize,
}

impl FleetResult {
    fn assemble(
        cfg: &FleetConfig,
        report: BssReport,
        recorder: Recorder,
        energy_totals: ClientEnergy,
        energy_clients: usize,
    ) -> Result<Self, FleetError> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let spent_nj = energy_totals.spent_nj();
        let fleet_saving = if report.baseline_nj > 0 {
            1.0 - ratio(spent_nj, report.baseline_nj)
        } else {
            0.0
        };
        let lifetime = LifetimeProjection::project(
            &cfg.battery,
            spent_nj,
            report.baseline_nj,
            cfg.duration_secs,
            (cfg.bss_count * cfg.clients_per_bss) as u64,
        )?;
        Ok(FleetResult {
            fleet_saving,
            policy: cfg.policy,
            lifetime,
            missed_wakeup_rate: ratio(report.missed_wakeups, report.useful_opportunities),
            spurious_wakeup_rate: ratio(report.spurious_wakeups, report.hide_wakeups),
            port_message_airtime_share: report.refresh_airtime_secs
                / (cfg.duration_secs * cfg.bss_count as f64),
            report,
            recorder,
            energy_totals,
            energy_clients,
        })
    }

    /// The merged `hide-metrics/1` JSON document. Byte-identical across
    /// reruns and `jobs` counts (wall-clock spans are excluded by the
    /// schema).
    pub fn metrics_json(&self) -> String {
        self.recorder.to_json()
    }

    /// The merged per-client energy ledger (integer nanojoules, keyed
    /// by `(bss_index, aid)`), fanned in from the shards in input
    /// order. Empty after a streamed run, whose rows went to the
    /// [`StreamSinks`].
    pub fn attribution(&self) -> &AttributionLedger {
        &self.report.attribution
    }

    /// The `policy` section body for the `hide-metrics/1` artifact:
    /// which policy ran (`kind`: 0 = hide, 1 = psm, 2 = scheduled),
    /// its schedule knobs (0/0 when no schedule), and the
    /// scheduled-wake tallies. Integer-only, single line.
    pub fn policy_metrics_section(&self) -> String {
        let (interval, period) = self
            .policy
            .schedule()
            .map_or((0, 0), |s| (s.interval_dtims, s.period_dtims));
        format!(
            "{{\"kind\":{},\"interval_dtims\":{},\"period_dtims\":{},\"scheduled_wakes\":{},\"deferred_wakeups\":{}}}",
            self.policy.kind_id(),
            interval,
            period,
            self.report.scheduled_wakes,
            self.report.deferred_wakeups
        )
    }

    /// [`metrics_json`](Self::metrics_json) with the fleet-wide
    /// `"energy"` attribution, `"policy"`, and `"battery"` lifetime
    /// sections spliced in — still integer-only and byte-identical
    /// across reruns, `jobs` counts and entry points (the energy
    /// section renders from the folded totals, which a streamed run
    /// keeps too).
    pub fn metrics_json_with_energy(&self) -> String {
        let energy = metrics_section_for(&self.energy_totals, self.energy_clients);
        let policy = self.policy_metrics_section();
        let battery = self.lifetime.to_metrics_section();
        self.recorder.to_json_with_sections(&[
            ("energy", &energy),
            ("policy", &policy),
            ("battery", &battery),
        ])
    }

    /// A small deterministic JSON document with the derived fleet
    /// scalars (energy, rates, Eq. 21 share). Formatted with fixed
    /// precision so it is byte-stable too; the two joule fields render
    /// the integer nanojoules exactly.
    pub fn summary_json(&self) -> String {
        const NJ_PER_J: u64 = 1_000_000_000;
        let r = &self.report;
        let spent_nj = self.energy_totals.spent_nj();
        format!(
            concat!(
                "{{\"schema\":\"hide-fleet-summary/1\",",
                "\"total_energy_j\":{}.{:09},",
                "\"baseline_energy_j\":{}.{:09},",
                "\"fleet_saving\":{:.9},",
                "\"missed_wakeup_rate\":{:.9},",
                "\"spurious_wakeup_rate\":{:.9},",
                "\"port_message_airtime_share\":{:.9},",
                "\"refresh_airtime_secs\":{:.9},",
                "\"events\":{},\"frames\":{},",
                "\"associations\":{},\"disassociations\":{},",
                "\"refreshes_sent\":{},\"refreshes_lost\":{},",
                "\"entries_expired\":{},\"wakeups\":{},",
                "\"missed_wakeups\":{},\"spurious_wakeups\":{}}}"
            ),
            spent_nj / NJ_PER_J,
            spent_nj % NJ_PER_J,
            r.baseline_nj / NJ_PER_J,
            r.baseline_nj % NJ_PER_J,
            self.fleet_saving,
            self.missed_wakeup_rate,
            self.spurious_wakeup_rate,
            self.port_message_airtime_share,
            r.refresh_airtime_secs,
            r.events,
            r.frames,
            r.associations,
            r.disassociations,
            r.refreshes_sent,
            r.refreshes_lost,
            r.entries_expired,
            r.wakeups,
            r.missed_wakeups,
            r.spurious_wakeups,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        FleetConfig {
            bss_count: 6,
            clients_per_bss: 8,
            duration_secs: 12.0,
            churn: ChurnConfig {
                mean_present_secs: 20.0,
                mean_absent_secs: 5.0,
                mean_active_secs: 3.0,
                mean_suspended_secs: 8.0,
                refresh_interval_secs: 2.0,
                stale_timeout_secs: 7.0,
                port_churn: 0.3,
                ..ChurnConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let ok = FleetConfig::default();
        assert!(ok.validate().is_ok());
        let c = FleetConfig {
            bss_count: 0,
            ..ok.clone()
        };
        assert_eq!(c.validate(), Err(FleetError::NoBsses));
        let c = FleetConfig {
            clients_per_bss: 0,
            ..ok.clone()
        };
        assert_eq!(c.validate(), Err(FleetError::NoClients));
        let c = FleetConfig {
            duration_secs: 0.0,
            ..ok.clone()
        };
        assert_eq!(c.validate(), Err(FleetError::InvalidDuration(0.0)));
        let c = FleetConfig {
            adoption: f64::NAN,
            ..ok
        };
        assert!(matches!(
            c.validate(),
            Err(FleetError::InvalidProbability {
                what: "adoption",
                ..
            })
        ));
    }

    #[test]
    fn inconsistent_profile_is_rejected_before_any_charge() {
        // A negative transmit power would be charged as 0 nJ per refresh
        // and a NaN receive power as 0 nJ per burst: plausible, wrong
        // numbers. Validation names the profile instead.
        for profile in [
            DeviceProfile {
                tx_power: -1.2,
                ..NEXUS_ONE
            },
            DeviceProfile {
                rx_power: f64::NAN,
                ..NEXUS_ONE
            },
        ] {
            let cfg = FleetConfig {
                profile,
                ..FleetConfig::default()
            };
            let want = Err(FleetError::InconsistentProfile("Nexus One"));
            assert_eq!(cfg.validate(), want);
            assert_eq!(cfg.try_run_with_jobs(1).map(|_| ()), want);
        }
    }

    #[test]
    fn jobs_count_does_not_change_output() {
        let cfg = small();
        let serial = cfg.try_run_with_jobs(1).unwrap();
        let parallel = cfg.try_run_with_jobs(4).unwrap();
        assert_eq!(serial.metrics_json(), parallel.metrics_json());
        assert_eq!(serial.summary_json(), parallel.summary_json());
        assert_eq!(serial.report, parallel.report);
        // The attribution ledger merges shard-by-shard in input order,
        // so its exports are byte-identical too.
        assert_eq!(
            serial.metrics_json_with_energy(),
            parallel.metrics_json_with_energy()
        );
        assert_eq!(
            serial.attribution().to_csv(),
            parallel.attribution().to_csv()
        );
        assert_eq!(
            serial.attribution().to_jsonl(),
            parallel.attribution().to_jsonl()
        );

        // Every entry point is the same driver with different sinks:
        // plain, profiled, traced and streamed runs yield the same
        // artifacts at any `jobs`.
        let expected = (serial.metrics_json_with_energy(), serial.summary_json());
        let dir = std::env::temp_dir().join(format!("hide-entry-unit-{}", std::process::id()));
        for jobs in [1, 3] {
            let plain = cfg.try_run_with_jobs(jobs).unwrap();
            let (profiled, _) = cfg.try_run_profiled_with_jobs(jobs).unwrap();
            let (traced, _) = cfg.try_run_traced_with_jobs(jobs, 1 << 14).unwrap();
            let streamed = cfg
                .try_run_streamed_with_jobs(
                    jobs,
                    &StreamExportConfig::new(&dir),
                    StreamSinks::default(),
                )
                .unwrap();
            streamed.cleanup().unwrap();
            for (name, r) in [
                ("plain", &plain),
                ("profiled", &profiled),
                ("traced", &traced),
                ("streamed", &streamed.result),
            ] {
                let got = (r.metrics_json_with_energy(), r.summary_json());
                assert_eq!(got, expected, "{name} run at jobs {jobs}");
            }
        }
        let _ = std::fs::remove_dir(&dir);
    }

    /// The profiled run's stage calls are exact: one setup span per
    /// shard and one merge span per run; one handler span per kernel
    /// event; and one pop span per event, plus at most one per shard
    /// for the pop that ends its loop at the horizon.
    #[test]
    fn profiled_stage_calls_are_exact() {
        let cfg = small();
        for jobs in [1, 3] {
            let (result, profile) = cfg.try_run_profiled_with_jobs(jobs).unwrap();
            let calls = |stage| profile.stage(stage).calls;
            let (events, shards) = (result.report.events, cfg.bss_count as u64);
            assert!(events > 0);
            assert_eq!(calls(FleetStage::Setup), shards);
            assert_eq!(calls(FleetStage::Merge), 1);
            assert_eq!(
                calls(FleetStage::DtimSweep)
                    + calls(FleetStage::Churn)
                    + calls(FleetStage::Refresh)
                    + calls(FleetStage::Arrival),
                events
            );
            let pops = calls(FleetStage::QueuePop);
            assert!(events <= pops && pops <= events + shards, "{pops} pops");
        }
    }

    #[test]
    fn attributed_energy_matches_aggregate() {
        let cfg = small();
        let result = cfg.try_run_with_jobs(2).unwrap();
        let ledger = result.attribution();
        assert!(!ledger.is_empty());
        assert_eq!(ledger.spent_nj(), result.energy_totals.spent_nj());
        crate::bss::tests::assert_priced_exactly(&cfg, &result.report, &result.energy_totals);
        // The spliced artifact still parses as balanced integer-only JSON.
        let json = result.metrics_json_with_energy();
        assert!(json.contains("\"energy\": {\"clients\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn traced_attribution_wake_columns_match_trace_join() {
        // Engine-online charging and the provenance trace join price
        // wakes with the same pre-rounded integers, so the wake columns
        // agree exactly (radio columns are invisible to the trace).
        let mut cfg = small();
        cfg.churn.refresh_loss = 0.4;
        let (result, flight) = cfg.try_run_traced_with_jobs(2, 1 << 16).unwrap();
        let counts = hide_obs::provenance::per_client(&flight);
        let priced = hide_energy::AttributionLedger::price(&counts, &cfg.profile);
        assert!(result.attribution().wake_columns_eq(&priced));
    }

    #[test]
    fn lossless_refresh_never_misses_wakeups() {
        let mut cfg = small();
        cfg.churn.refresh_loss = 0.0;
        let result = cfg.try_run_with_jobs(2).unwrap();
        assert_eq!(result.report.missed_wakeups, 0);
        assert_eq!(result.missed_wakeup_rate, 0.0);
        assert!(result.report.useful_opportunities > 0);
    }

    #[test]
    fn lossy_refresh_eventually_misses() {
        let mut cfg = small();
        cfg.bss_count = 12;
        cfg.duration_secs = 20.0;
        cfg.churn.refresh_loss = 0.6;
        cfg.churn.refresh_interval_secs = 3.0;
        cfg.churn.stale_timeout_secs = 4.0;
        let result = cfg.try_run_with_jobs(2).unwrap();
        assert!(result.report.refreshes_lost > 0);
        assert!(result.report.missed_wakeups > 0);
        assert!(result.missed_wakeup_rate > 0.0);
    }

    #[test]
    fn hide_adoption_saves_energy() {
        let cfg = FleetConfig {
            adoption: 1.0,
            ..small()
        };
        let result = cfg.try_run().unwrap();
        assert!(result.energy_totals.spent_nj() < result.report.baseline_nj);
        assert!(result.fleet_saving > 0.0 && result.fleet_saving < 1.0);
        assert!(result.port_message_airtime_share > 0.0);
        assert!(result.port_message_airtime_share < 0.05);
    }

    #[test]
    fn streamed_run_matches_in_memory_exports_byte_for_byte() {
        let mut cfg = small();
        cfg.churn.refresh_loss = 0.3;
        let capacity = 1 << 14;
        let (mem, flight) = cfg.try_run_traced_with_jobs(2, capacity).unwrap();

        let dir = std::env::temp_dir().join(format!("hide-stream-unit-{}", std::process::id()));
        let mut stream = StreamExportConfig::new(&dir);
        stream.trace_capacity = capacity;
        stream.window = 2; // force several runs
        stream.chunk_events = 3; // force many chunks per run
        let mut csv = Vec::new();
        let mut jsonl = Vec::new();
        let streamed = cfg
            .try_run_streamed_with_jobs(
                3,
                &stream,
                StreamSinks {
                    attribution_csv: Some(&mut csv),
                    attribution_jsonl: Some(&mut jsonl),
                },
            )
            .unwrap();

        // Attribution lanes: streamed concatenation == merged ledger.
        assert_eq!(csv, mem.attribution().to_csv().into_bytes());
        assert_eq!(jsonl, mem.attribution().to_jsonl().into_bytes());

        // Trace exports: k-way merge over spilled runs == in-memory merge.
        let mut out = Vec::new();
        streamed.write_trace_jsonl(&mut out).unwrap();
        assert_eq!(out, hide_obs::export::to_jsonl(&flight).into_bytes());
        let mut out = Vec::new();
        streamed.write_chrome_trace(&mut out).unwrap();
        assert_eq!(out, hide_obs::export::to_chrome_trace(&flight).into_bytes());

        // Metrics and scalars: identical artifact, identical drops.
        assert_eq!(
            streamed.metrics_json_with_energy(),
            mem.metrics_json_with_energy()
        );
        assert_eq!(streamed.result.summary_json(), mem.summary_json());
        assert_eq!(streamed.dropped(), flight.dropped());
        assert_eq!(streamed.events(), flight.len() as u64);
        assert!(streamed.result.report.attribution.is_empty());

        streamed.cleanup().unwrap();
        assert!(!streamed.spill.path.exists());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn oversized_spill_chunk_is_an_export_error() {
        let mut stream = StreamExportConfig::new(std::env::temp_dir());
        stream.chunk_events = usize::MAX;
        let err = small()
            .try_run_streamed_with_jobs(1, &stream, StreamSinks::default())
            .unwrap_err();
        assert!(matches!(err, FleetError::Export(_)), "unexpected {err:?}");
    }

    #[test]
    fn summary_json_is_well_formed() {
        let result = small().try_run_with_jobs(1).unwrap();
        let json = result.summary_json();
        assert!(json.starts_with("{\"schema\":\"hide-fleet-summary/1\""));
        assert!(json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
