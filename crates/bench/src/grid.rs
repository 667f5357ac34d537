//! Sweep orchestration: registry specs → flat job table → worker pool →
//! journal → byte-identical artifacts.
//!
//! This is the bench-side half of the `uasn-lab` subsystem. The lab crate
//! owns the mechanics (job identity, the thread pool, the JSONL journal,
//! progress reporting); this module owns the experiment semantics:
//! expanding [`FigureSpec`]s into cells, running each cell through
//! [`crate::cell::run_cell`], and re-folding the results in canonical
//! table order so the output of a sweep is independent of worker count,
//! scheduling order, and how many times it was interrupted and resumed.
//!
//! Determinism argument, in one paragraph: a cell's randomness depends
//! only on `(configure(x), protocol, seed)` — the pool hands a worker
//! nothing but a table index. Cell results cross the journal as an exact
//! JSON round trip ([`CellOutput`]'s invariant). Aggregation never sees
//! completion order: it walks the job table in `(figure, point, protocol,
//! seed)` order, folds each cell's seeds with [`crate::cell::fold_cells`]
//! (the arithmetic of the sequential [`crate::runner::run_replicated`]),
//! and lays the figure out with `experiments::assemble`. Hence `--jobs
//! 1`, `--jobs 8`, and any kill/resume split produce bit-identical
//! figures.

use std::io;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use uasn_lab::journal::{JournalError, JournalWriter, LoadedJournal};
use uasn_lab::pool::{self, Outcome};
use uasn_lab::progress::Progress;
use uasn_lab::spec::{JobKey, JobTable, SweepSpec};
use uasn_sim::json::JsonValue;

use crate::cell::{self, CellOutput};
use crate::experiments::{assemble, ExperimentRun};
use crate::figures::{by_id, FigureSpec};
use crate::manifest::StatsAggregate;
use crate::protocols::Protocol;
use crate::runner::DEFAULT_SEEDS;

/// One expanded cell: where a job-table index points back into the
/// experiment registry.
#[derive(Debug, Clone, Copy)]
pub struct CellRef {
    /// The figure this cell belongs to.
    pub spec: &'static FigureSpec,
    /// Index into the figure's x-axis.
    pub point: usize,
    /// Protocol run in this cell.
    pub protocol: Protocol,
    /// Replication index (maps to a master seed via the seed scheme).
    pub seed: u64,
}

/// Expands figure specs into the flat, canonically-ordered job table and
/// the parallel `CellRef` lookup the pool's run closure uses.
pub fn expand(specs: &[&'static FigureSpec], seeds: u64) -> (JobTable, Vec<CellRef>) {
    let mut jobs = Vec::new();
    let mut refs = Vec::new();
    for &spec in specs {
        for (point, _) in spec.xs.iter().enumerate() {
            for &protocol in spec.protocols {
                for seed in 0..seeds {
                    jobs.push(JobKey {
                        figure: spec.id.to_string(),
                        point,
                        protocol: protocol.name().to_string(),
                        seed,
                    });
                    refs.push(CellRef {
                        spec,
                        point,
                        protocol,
                        seed,
                    });
                }
            }
        }
    }
    (JobTable { jobs }, refs)
}

/// How to run a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Replications per cell.
    pub seeds: u64,
    /// Worker threads (clamped to the pending-cell count by the pool).
    pub workers: usize,
    /// Checkpoint journal path. `None` runs without checkpointing; an
    /// existing file at the path is resumed (its header must match this
    /// sweep), a missing one is created.
    pub journal: Option<PathBuf>,
    /// Schedule at most this many *fresh* cells (testing / CI
    /// interruption hook: a deterministic "kill" point). The journal
    /// keeps everything that ran.
    pub max_cells: Option<usize>,
    /// Silence the live progress line.
    pub quiet: bool,
    /// Run every cell with performance profiling on
    /// (`SimConfig::with_profiling`). Results are bit-identical either
    /// way; profiled cells additionally journal a `profile` payload that
    /// aggregates into the sweep's [`SweepOutcome::stats`]. Resuming a
    /// journal started with the other setting is allowed — only the
    /// freshly run cells carry (or lack) profiles.
    pub profile: bool,
    /// Run every cell with the online invariant monitors and drop
    /// forensics on (`SimConfig::with_monitoring`). Results are
    /// bit-identical either way; monitored cells additionally journal a
    /// `monitor` payload that aggregates into the sweep's
    /// [`SweepOutcome::stats`]. Like `profile`, mixed-setting resumes
    /// are allowed.
    pub monitor: bool,
    /// Cooperative cancellation flag (the `uasn-labd` cancel/drain hook).
    /// When another thread sets it, the sweep stops *scheduling* fresh
    /// cells; in-flight cells complete and journal normally, so a
    /// cancelled journal resumes cleanly. `None` runs uninterruptible.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            seeds: DEFAULT_SEEDS,
            workers: 1,
            journal: None,
            max_cells: None,
            quiet: true,
            profile: false,
            monitor: false,
            cancel: None,
        }
    }
}

/// What a sweep run did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One aggregated artifact per requested figure, in request order.
    /// Empty unless [`SweepOutcome::complete`] — partial grids are never
    /// silently aggregated.
    pub runs: Vec<ExperimentRun>,
    /// Whether every cell of the sweep has a result.
    pub complete: bool,
    /// Total cells in the sweep.
    pub total: usize,
    /// Cells skipped because the journal already had them.
    pub resumed: usize,
    /// Fresh cells completed by this run.
    pub completed: usize,
    /// Cells whose latest attempt panicked: `(job id, panic message)`.
    pub failed: Vec<(String, String)>,
    /// Whether the run stopped early because it hit `max_cells`.
    pub hit_max_cells: bool,
    /// Whether the run stopped early because [`SweepOptions::cancel`] was
    /// raised. Cells already in flight at that moment still journaled.
    pub cancelled: bool,
    /// The end-of-run progress summary line.
    pub summary: String,
    /// The run account folded over every decoded cell (fresh *and*
    /// resumed): engine totals, trace health, and the profile and
    /// monitoring totals of the cells that carried them. A lossy
    /// `stats.trace` means some cell silently dropped trace records —
    /// callers should surface it, not bury it in manifests.
    pub stats: StatsAggregate,
}

fn to_io(e: JournalError) -> io::Error {
    let kind = match &e {
        JournalError::Io(_, inner) => inner.kind(),
        _ => io::ErrorKind::InvalidData,
    };
    io::Error::new(kind, e.to_string())
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Runs (or resumes) a sweep over `specs`.
///
/// # Errors
///
/// Fails on journal I/O errors, a journal whose header does not describe
/// this exact sweep, an interior-corrupt journal, or a journaled payload
/// that does not decode (all surfaced as [`io::Error`]). A *panicking
/// cell* is not an error — it is recorded in [`SweepOutcome::failed`] and
/// retried on the next resume.
pub fn run_sweep(specs: &[&'static FigureSpec], opts: &SweepOptions) -> io::Result<SweepOutcome> {
    let (table, refs) = expand(specs, opts.seeds);
    let total = table.len();
    let ids: Vec<String> = table.jobs.iter().map(JobKey::id).collect();
    let this_spec = SweepSpec {
        figures: specs.iter().map(|s| s.id.to_string()).collect(),
        seeds: opts.seeds,
    };

    // Decoded results per table index, prefilled from the journal on
    // resume; errors[i] holds the latest panic message for undone cells.
    let mut decoded: Vec<Option<CellOutput>> = vec![None; total];
    let mut errors: Vec<Option<String>> = vec![None; total];
    let mut writer = match &opts.journal {
        Some(path) if path.exists() => {
            let loaded = LoadedJournal::load(path).map_err(to_io)?;
            let found = SweepSpec::from_json(&loaded.spec)
                .ok_or_else(|| bad_data("journal spec is unreadable".to_string()))?;
            if found != this_spec {
                return Err(bad_data(format!(
                    "journal describes figures {:?} x {} seeds, not figures {:?} x {} seeds",
                    found.figures, found.seeds, this_spec.figures, this_spec.seeds
                )));
            }
            for (index, id) in ids.iter().enumerate() {
                if let Some(payload) = loaded.payload(id) {
                    decoded[index] = Some(CellOutput::from_json(payload).ok_or_else(|| {
                        bad_data(format!("journaled payload for {id} does not decode"))
                    })?);
                }
            }
            for (job, error) in loaded.failed() {
                if let Some(index) = ids.iter().position(|id| id == job) {
                    errors[index] = Some(error.to_string());
                }
            }
            Some(JournalWriter::append(path).map_err(to_io)?)
        }
        Some(path) => Some(JournalWriter::create(path, &this_spec.to_json()).map_err(to_io)?),
        None => None,
    };

    let resumed = decoded.iter().filter(|c| c.is_some()).count();
    let mut pending: Vec<usize> = (0..total).filter(|&i| decoded[i].is_none()).collect();
    // The cap is enforced at scheduling time, not mid-flight, so exactly
    // max_cells fresh cells run — a deterministic interruption point.
    let mut hit_max_cells = false;
    if let Some(max) = opts.max_cells {
        if pending.len() > max {
            pending.truncate(max);
            hit_max_cells = true;
        }
    }

    // A cancel raised before any cell is scheduled stops the whole sweep;
    // raised mid-run, it stops scheduling at the next completed cell (the
    // pool's sink is the only cooperative point we own).
    let mut cancelled = opts
        .cancel
        .as_ref()
        .is_some_and(|flag| flag.load(Ordering::SeqCst));
    if cancelled {
        pending.clear();
    }

    let mut progress = Progress::new(total, resumed, opts.workers, !opts.quiet);
    let mut journal_error: Option<JournalError> = None;
    let run = |index: usize| {
        let r = &refs[index];
        let mut cfg = (r.spec.configure)(r.spec.xs[r.point]);
        if opts.profile {
            cfg = cfg.with_profiling(true);
        }
        if opts.monitor {
            cfg = cfg.with_monitoring(true);
        }
        cell::run_cell(&cfg, r.protocol, r.seed).to_json()
    };
    pool::execute(&pending, opts.workers, run, |result| {
        let id = &ids[result.index];
        let failed = matches!(result.outcome, Outcome::Failed(_));
        progress.on_result(result.wall, failed);
        match result.outcome {
            Outcome::Done(payload) => {
                if let Some(w) = writer.as_mut() {
                    if let Err(e) =
                        w.record_done(id, result.worker, result.wall.as_micros() as u64, &payload)
                    {
                        journal_error = Some(e);
                        return ControlFlow::Break(());
                    }
                }
                match CellOutput::from_json(&payload) {
                    Some(c) => {
                        decoded[result.index] = Some(c);
                        errors[result.index] = None;
                    }
                    None => {
                        errors[result.index] = Some("cell payload did not decode".to_string());
                    }
                }
            }
            Outcome::Failed(message) => {
                if let Some(w) = writer.as_mut() {
                    if let Err(e) = w.record_failed(id, &message) {
                        journal_error = Some(e);
                        return ControlFlow::Break(());
                    }
                }
                errors[result.index] = Some(message);
            }
        }
        if let Some(flag) = &opts.cancel {
            if flag.load(Ordering::SeqCst) {
                cancelled = true;
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    if let Some(e) = journal_error {
        return Err(to_io(e));
    }

    let completed = decoded.iter().filter(|c| c.is_some()).count() - resumed;
    let failed: Vec<(String, String)> = table
        .jobs
        .iter()
        .zip(&errors)
        .zip(&decoded)
        .filter_map(|((job, error), c)| {
            if c.is_some() {
                return None;
            }
            error.clone().map(|e| (job.id(), e))
        })
        .collect();
    let complete = decoded.iter().all(|c| c.is_some());

    // Sweep-wide run account, over every decoded cell (fresh and resumed)
    // — folded before assembly consumes the cells. This is how silent
    // trace loss in a parallel sweep becomes visible without digging
    // through per-figure manifests.
    let mut stats = StatsAggregate::default();
    for cell in decoded.iter().flatten() {
        stats.absorb(
            &cell.stats,
            &cell.trace,
            cell.profile.as_ref(),
            cell.monitor.as_ref(),
        );
    }

    let runs = if complete {
        let mut cursor = 0usize;
        let mut runs = Vec::with_capacity(specs.len());
        for &spec in specs {
            let protocols = spec.protocols.len();
            let seeds = opts.seeds as usize;
            let run = assemble(spec, opts.seeds, |x_idx, p| {
                let p_idx = spec
                    .protocols
                    .iter()
                    .position(|&q| q == p)
                    .expect("protocol from this spec's roster");
                let base = cursor + (x_idx * protocols + p_idx) * seeds;
                let cells: Vec<CellOutput> = decoded[base..base + seeds]
                    .iter_mut()
                    .map(|c| c.take().expect("complete grid has every cell"))
                    .collect();
                cell::fold_cells(p, &cells)
            });
            cursor += spec.cells(opts.seeds);
            runs.push(run);
        }
        runs
    } else {
        Vec::new()
    };

    Ok(SweepOutcome {
        runs,
        complete,
        total,
        resumed,
        completed,
        failed,
        hit_max_cells,
        cancelled,
        summary: progress.summary(),
        stats,
    })
}

/// What `lab status` reports about a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalStatus {
    /// Figure IDs the journal covers.
    pub figures: Vec<String>,
    /// Replications per cell.
    pub seeds: u64,
    /// Total cells in the sweep.
    pub total: usize,
    /// Cells with a completed record.
    pub done: usize,
    /// Cells whose latest record is a failure.
    pub failed: Vec<(String, String)>,
    /// Whether a truncated trailing line was dropped on load.
    pub dropped_partial: bool,
}

impl JournalStatus {
    /// Cells with no completed record yet.
    pub fn pending(&self) -> usize {
        self.total - self.done
    }

    /// The multi-line human report `lab status` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "sweep: figures {} x {} seeds\ncells: {} done / {} total ({} pending, {} failed)\n",
            self.figures.join(","),
            self.seeds,
            self.done,
            self.total,
            self.pending(),
            self.failed.len(),
        );
        if self.dropped_partial {
            out.push_str("note: dropped a truncated trailing record (that cell will re-run)\n");
        }
        for (job, error) in &self.failed {
            out.push_str(&format!("failed: {job}: {error}\n"));
        }
        out
    }

    /// The machine-readable status document — one serializer for `lab
    /// status --json` and the `uasn-labd` job endpoints, so scripts never
    /// scrape the human rendering. `pending` is included derived for
    /// consumer convenience.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "figures".to_string(),
                JsonValue::Array(self.figures.iter().map(JsonValue::from_string).collect()),
            ),
            ("seeds".to_string(), JsonValue::from_u64(self.seeds)),
            ("total".to_string(), JsonValue::from_u64(self.total as u64)),
            ("done".to_string(), JsonValue::from_u64(self.done as u64)),
            (
                "pending".to_string(),
                JsonValue::from_u64(self.pending() as u64),
            ),
            (
                "failed".to_string(),
                JsonValue::Array(
                    self.failed
                        .iter()
                        .map(|(job, error)| {
                            JsonValue::Object(vec![
                                ("job".to_string(), JsonValue::from_string(job)),
                                ("error".to_string(), JsonValue::from_string(error)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "dropped_partial".to_string(),
                JsonValue::Bool(self.dropped_partial),
            ),
        ])
    }

    /// Parses [`JournalStatus::to_json`]'s document back (the derived
    /// `pending` field is recomputed, not trusted).
    pub fn from_json(doc: &JsonValue) -> Option<JournalStatus> {
        let figures = doc
            .get("figures")?
            .as_array()?
            .iter()
            .map(|f| f.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?;
        let failed = doc
            .get("failed")?
            .as_array()?
            .iter()
            .map(|entry| {
                let job = entry.get("job")?.as_str()?.to_string();
                let error = entry.get("error")?.as_str()?.to_string();
                Some((job, error))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(JournalStatus {
            figures,
            seeds: doc.get("seeds")?.as_u64()?,
            total: doc.get("total")?.as_u64()? as usize,
            done: doc.get("done")?.as_u64()? as usize,
            failed,
            dropped_partial: doc.get("dropped_partial")?.as_bool()?,
        })
    }
}

/// Re-derives the sweep a journal describes: its registry specs and seed
/// count. This is how `lab resume` reconstructs the command line from the
/// journal alone.
///
/// # Errors
///
/// Fails on unreadable journals and on figure IDs the registry no longer
/// knows.
pub fn specs_from_journal(path: &Path) -> io::Result<(Vec<&'static FigureSpec>, u64)> {
    let loaded = LoadedJournal::load(path).map_err(to_io)?;
    let spec = SweepSpec::from_json(&loaded.spec)
        .ok_or_else(|| bad_data("journal spec is unreadable".to_string()))?;
    let specs = spec
        .figures
        .iter()
        .map(|id| by_id(id).ok_or_else(|| bad_data(format!("journal names unknown figure {id:?}"))))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((specs, spec.seeds))
}

/// Summarises a journal for `lab status`.
///
/// # Errors
///
/// Same failure modes as [`specs_from_journal`].
pub fn status(path: &Path) -> io::Result<JournalStatus> {
    let (specs, seeds) = specs_from_journal(path)?;
    let loaded = LoadedJournal::load(path).map_err(to_io)?;
    let (table, _) = expand(&specs, seeds);
    let done = table
        .jobs
        .iter()
        .filter(|job| loaded.is_done(&job.id()))
        .count();
    Ok(JournalStatus {
        figures: specs.iter().map(|s| s.id.to_string()).collect(),
        seeds,
        total: table.len(),
        done,
        failed: loaded
            .failed()
            .into_iter()
            .map(|(j, e)| (j.to_string(), e.to_string()))
            .collect(),
        dropped_partial: loaded.dropped_partial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_canonical_and_ids_are_stable() {
        let f6 = by_id("F6").unwrap();
        let f9a = by_id("F9a").unwrap();
        let (table, refs) = expand(&[f6, f9a], 2);
        assert_eq!(table.len(), f6.cells(2) + f9a.cells(2));
        assert_eq!(table.len(), refs.len());
        // Seed varies fastest, then protocol, then point, then figure.
        assert_eq!(table.jobs[0].id(), "F6/p00/s-fama/s000");
        assert_eq!(table.jobs[1].id(), "F6/p00/s-fama/s001");
        assert_eq!(table.jobs[2].id(), "F6/p00/ropa/s000");
        let first_f9a = f6.cells(2);
        assert_eq!(table.jobs[first_f9a].figure, "F9a");
        assert_eq!(refs[first_f9a].spec.id, "F9a");
        // Every id is unique across the two figures.
        let mut ids: Vec<String> = table.jobs.iter().map(JobKey::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), table.len());
    }

    #[test]
    fn mismatched_journal_spec_is_rejected() {
        let path =
            std::env::temp_dir().join(format!("uasn-grid-mismatch-{}.jsonl", std::process::id()));
        let header = SweepSpec {
            figures: vec!["F6".to_string()],
            seeds: 4,
        };
        JournalWriter::create(&path, &header.to_json()).expect("create");
        let err = run_sweep(
            &[by_id("F6").unwrap()],
            &SweepOptions {
                seeds: 2, // the journal says 4
                journal: Some(path.clone()),
                ..SweepOptions::default()
            },
        )
        .map(|_| ())
        .expect_err("seed mismatch must not silently merge");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_status_round_trips_through_json() {
        let status = JournalStatus {
            figures: vec!["F6".to_string(), "X2".to_string()],
            seeds: 4,
            total: 120,
            done: 77,
            failed: vec![("F6/p01/ropa/s002".to_string(), "cell panicked".to_string())],
            dropped_partial: true,
        };
        let doc = status.to_json();
        assert_eq!(
            doc.get("pending").and_then(JsonValue::as_u64),
            Some(43),
            "derived pending is published"
        );
        assert_eq!(JournalStatus::from_json(&doc), Some(status));
        assert!(JournalStatus::from_json(&JsonValue::Object(vec![])).is_none());
    }

    #[test]
    fn a_pre_raised_cancel_flag_schedules_nothing() {
        let flag = Arc::new(AtomicBool::new(true));
        let outcome = run_sweep(
            &[by_id("SMOKE").unwrap()],
            &SweepOptions {
                seeds: 1,
                cancel: Some(flag),
                ..SweepOptions::default()
            },
        )
        .expect("cancelled sweep still returns an outcome");
        assert!(outcome.cancelled);
        assert_eq!(outcome.completed, 0);
        assert!(!outcome.complete);
        assert!(outcome.runs.is_empty(), "partial grids never aggregate");
    }
}
