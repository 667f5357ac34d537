//! The `uasn-labd` server: accept loop, routes, the sweep executor, and
//! crash-safe job persistence.
//!
//! ## Layout on disk
//!
//! Everything lives under one state directory:
//!
//! ```text
//! <state>/labd.addr              the bound address (for port-0 tests/CI)
//! <state>/jobs/<id>.job.json     job record: request + state (+ error)
//! <state>/jobs/<id>.job.json.tmp  the record being rewritten (transient)
//! <state>/jobs/<id>.journal.jsonl the sweep's checkpoint journal (v1)
//! <state>/jobs/<id>.summary.json  sweep summary once the job ends
//! <state>/results/<id>/<figure>.csv           figure series (Done jobs)
//! <state>/results/<id>/<figure>.manifest.json full run manifest
//! ```
//!
//! ## Resume-on-restart contract
//!
//! The server adds **no** scheduling state of its own to the journal: a
//! job's sweep runs through [`uasn_bench::grid::run_sweep`] with a journal
//! path, exactly like `lab run --journal`. A `kill -9` therefore leaves
//! the same artifact a killed CLI run leaves, and restart recovery is just
//! "requeue every non-terminal job" — `run_sweep` skips the journaled
//! cells on its own. Recovery drops a recovered job's `max_cells` bound so
//! deliberately interrupted jobs run to completion on the next attempt.
//!
//! ## Identity contract
//!
//! Journals from a server-submitted job and a CLI run of the same sweep
//! agree on [`uasn_lab::journal::LoadedJournal::canonical_bytes`]: the
//! header spec plus every final cell record sorted by job ID, with the
//! scheduling metadata (`worker`, `wall_us`) stripped — those legitimately
//! differ between any two executions, including two CLI runs.

use std::fs::File;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use uasn_bench::figures::parse_figures;
use uasn_bench::grid::{run_sweep, SweepOptions, SweepOutcome};
use uasn_lab::client::JobRequest;
use uasn_lab::tail::JournalTailer;
use uasn_sim::json::JsonValue;

use crate::http::{read_request, write_error, write_json, ChunkedWriter, Request};
use crate::jobs::{CancelError, Job, JobManager, JobState, RunOutcome, SubmitError};

/// How a server instance runs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (written to
    /// `<state>/labd.addr`).
    pub addr: String,
    /// The state directory (created if missing).
    pub state_dir: PathBuf,
    /// Runner threads executing sweeps. `0` is a valid admission-only
    /// configuration: jobs queue but never start (used by the
    /// deterministic backpressure tests).
    pub runners: usize,
    /// Admission-queue capacity; submissions beyond it get 429.
    pub queue_capacity: usize,
    /// Default per-sweep worker threads when a submission does not name
    /// its own.
    pub workers: usize,
}

impl ServerConfig {
    /// A config with the defaults: 1 runner, capacity 4, 2 sweep workers.
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            state_dir: state_dir.into(),
            runners: 1,
            queue_capacity: 4,
            workers: 2,
        }
    }
}

struct Shared {
    config: ServerConfig,
    manager: JobManager,
    stop: AtomicBool,
    /// Serialises job-file rewrites, so no two share a `.tmp` file.
    persist_lock: Mutex<()>,
}

impl Shared {
    fn new(config: ServerConfig) -> Shared {
        Shared {
            manager: JobManager::new(config.queue_capacity),
            stop: AtomicBool::new(false),
            persist_lock: Mutex::new(()),
            config,
        }
    }

    fn jobs_dir(&self) -> PathBuf {
        self.config.state_dir.join("jobs")
    }

    fn results_dir(&self) -> PathBuf {
        self.config.state_dir.join("results")
    }

    fn job_file(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(format!("{id}.job.json"))
    }

    fn journal_path(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(format!("{id}.journal.jsonl"))
    }

    fn summary_path(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(format!("{id}.summary.json"))
    }

    fn job_results_dir(&self, id: &str) -> PathBuf {
        self.results_dir().join(id)
    }

    /// Rewrites `<id>.job.json` through `<id>.job.json.tmp` and a rename,
    /// so a `kill -9` at any point leaves the old record or the new one,
    /// never a truncated one. Recovery ignores the `.tmp` name.
    fn persist_job(&self, job: &Job) {
        let mut text = job.to_json().to_json();
        text.push('\n');
        // The lock guards no data, so a poisoned one is still usable.
        let _guard = self.persist_lock.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = self.replace_file(&self.job_file(&job.id), text.as_bytes()) {
            eprintln!("labd: could not persist {}: {e}", job.id);
        }
    }

    /// Writes `bytes` to `<target>.tmp`, syncs it, renames it over
    /// `target` (a `.json` file) and syncs the jobs directory, so the
    /// rename itself is durable.
    fn replace_file(&self, target: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = target.with_extension("json.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, target)?;
        File::open(self.jobs_dir())?.sync_all()
    }
}

/// A running server. Dropping it does *not* stop the threads — call
/// [`Server::shutdown`] (or let a client `POST /v1/shutdown`) and then
/// [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Creates the state directory, recovers persisted jobs (requeueing
    /// every non-terminal one), binds the listener, records the bound
    /// address in `<state>/labd.addr`, and spawns the runner and accept
    /// threads.
    ///
    /// # Errors
    ///
    /// Filesystem and bind failures.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let shared = Arc::new(Shared::new(config));
        std::fs::create_dir_all(shared.jobs_dir())?;
        std::fs::create_dir_all(shared.results_dir())?;
        recover_jobs(&shared)?;

        let listener = TcpListener::bind(&shared.config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        std::fs::write(
            shared.config.state_dir.join("labd.addr"),
            format!("{addr}\n"),
        )?;

        let mut threads = Vec::new();
        for _ in 0..shared.config.runners {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                crate::jobs::runner_loop(
                    &shared.manager,
                    |job, cancel| execute(&shared, job, cancel),
                    |job| shared.persist_job(job),
                );
            }));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&shared, listener)));
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates the graceful drain: admission closes, running sweeps stop
    /// at their next cell boundary and journal what they have, queued jobs
    /// stay persisted for the next start. Returns immediately; use
    /// [`Server::wait`] to block until everything exits.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.manager.drain();
    }

    /// Blocks until the accept loop and every runner exit (i.e. until
    /// someone calls [`Server::shutdown`] or `POST /v1/shutdown`).
    pub fn wait(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Restart recovery: every `<id>.job.json` is reloaded in ID order;
/// terminal jobs are kept for the query surface, non-terminal ones are
/// requeued (minus their `max_cells` bound, so interrupted jobs run to
/// completion).
fn recover_jobs(shared: &Shared) -> io::Result<()> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(shared.jobs_dir())?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".job.json"))
        })
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let Some(job) = JsonValue::parse(&text)
            .ok()
            .as_ref()
            .and_then(Job::from_json)
        else {
            eprintln!("labd: skipping unreadable job file {}", path.display());
            continue;
        };
        if job.state.is_terminal() && job.state != JobState::Interrupted {
            shared.manager.restore(job, false);
            continue;
        }
        let mut job = job;
        job.request.max_cells = None;
        shared.manager.restore(job.clone(), true);
        if let Some(requeued) = shared.manager.job(&job.id) {
            shared.persist_job(&requeued);
        }
    }
    Ok(())
}

/// Executes one job's sweep through the exact `lab run` machinery —
/// journal, resume, aggregation — plus the job's cancel flag.
fn execute(shared: &Shared, job: &Job, cancel: &Arc<AtomicBool>) -> Result<RunOutcome, String> {
    let specs = parse_figures(&job.request.figures.join(","))
        .map_err(|e| format!("bad figure list: {e}"))?;
    if job.request.seeds == 0 {
        return Err("seeds must be at least 1".to_string());
    }
    let opts = SweepOptions {
        seeds: job.request.seeds,
        workers: job.request.workers.unwrap_or(shared.config.workers).max(1),
        journal: Some(shared.journal_path(&job.id)),
        max_cells: job.request.max_cells,
        quiet: true,
        profile: job.request.profile,
        monitor: job.request.monitor,
        cancel: Some(Arc::clone(cancel)),
    };
    let outcome = run_sweep(&specs, &opts).map_err(|e| format!("sweep failed: {e}"))?;
    write_summary(shared, &job.id, &outcome);
    if outcome.complete {
        let dir = shared.job_results_dir(&job.id);
        for run in &outcome.runs {
            run.write(&dir)
                .map_err(|e| format!("could not write artifacts: {e}"))?;
        }
        return Ok(RunOutcome::Done);
    }
    if outcome.cancelled {
        return Ok(RunOutcome::Cancelled);
    }
    if outcome.hit_max_cells {
        return Ok(RunOutcome::Interrupted);
    }
    if !outcome.failed.is_empty() {
        return Err(format!(
            "{} of {} cells failed (a restart retries them)",
            outcome.failed.len(),
            outcome.total
        ));
    }
    Err("sweep ended incomplete".to_string())
}

/// Persists the per-job sweep summary: progress counts, the rollup line,
/// and the merged profile/monitor documents the query surface serves.
fn write_summary(shared: &Shared, id: &str, outcome: &SweepOutcome) {
    let mut pairs = vec![
        ("id".to_string(), JsonValue::from_string(id)),
        ("complete".to_string(), JsonValue::Bool(outcome.complete)),
        ("cancelled".to_string(), JsonValue::Bool(outcome.cancelled)),
        (
            "hit_max_cells".to_string(),
            JsonValue::Bool(outcome.hit_max_cells),
        ),
        (
            "total".to_string(),
            JsonValue::from_u64(outcome.total as u64),
        ),
        (
            "resumed".to_string(),
            JsonValue::from_u64(outcome.resumed as u64),
        ),
        (
            "completed".to_string(),
            JsonValue::from_u64(outcome.completed as u64),
        ),
        (
            "failed".to_string(),
            JsonValue::Array(
                outcome
                    .failed
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
            "summary".to_string(),
            JsonValue::from_string(&outcome.summary),
        ),
        (
            "trace_lossless".to_string(),
            JsonValue::Bool(outcome.stats.trace.is_lossless()),
        ),
    ];
    if let Some(profile) = &outcome.stats.profile {
        pairs.push(("profile".to_string(), profile.to_json()));
    }
    if let Some(monitor) = &outcome.stats.monitor {
        pairs.push(("monitor".to_string(), monitor.to_json()));
    }
    let mut text = JsonValue::Object(pairs).to_json();
    text.push('\n');
    if let Err(e) = std::fs::write(shared.summary_path(id), text) {
        eprintln!("labd: could not write summary for {id}: {e}");
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let _ = handle_connection(&shared, stream);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(e) => {
            return write_error(&mut stream, 400, "bad-request", &e.to_string(), Vec::new());
        }
    };
    route(shared, &mut stream, &request)
}

fn route(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let segments = request.segments();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let doc = JsonValue::Object(vec![
                ("ok".to_string(), JsonValue::Bool(true)),
                (
                    "jobs".to_string(),
                    JsonValue::from_u64(shared.manager.jobs().len() as u64),
                ),
                (
                    "draining".to_string(),
                    JsonValue::Bool(shared.manager.is_draining()),
                ),
            ]);
            write_json(stream, 200, &doc)
        }
        ("POST", ["v1", "jobs"]) => handle_submit(shared, stream, request),
        ("GET", ["v1", "jobs"]) => {
            let jobs: Vec<JsonValue> = shared.manager.jobs().iter().map(Job::to_json).collect();
            write_json(
                stream,
                200,
                &JsonValue::Object(vec![("jobs".to_string(), JsonValue::Array(jobs))]),
            )
        }
        ("GET", ["v1", "jobs", id]) => match shared.manager.job(id) {
            Some(job) => write_json(stream, 200, &job.to_json()),
            None => unknown_job(stream, id),
        },
        ("POST", ["v1", "jobs", id, "cancel"]) => handle_cancel(shared, stream, id),
        ("GET", ["v1", "jobs", id, "stream"]) => handle_stream(shared, stream, id),
        ("GET", ["v1", "jobs", id, "summary"]) => handle_summary(shared, stream, id),
        ("GET", ["v1", "results"]) => handle_results_index(shared, stream),
        ("GET", ["v1", "results", id]) => handle_results_job(shared, stream, id),
        ("GET", ["v1", "results", id, figure]) => handle_results_figure(shared, stream, id, figure),
        ("POST", ["v1", "shutdown"]) => {
            write_json(
                stream,
                200,
                &JsonValue::Object(vec![
                    ("ok".to_string(), JsonValue::Bool(true)),
                    ("draining".to_string(), JsonValue::Bool(true)),
                ]),
            )?;
            shared.stop.store(true, Ordering::SeqCst);
            shared.manager.drain();
            Ok(())
        }
        (_, ["healthz"]) | (_, ["v1", ..]) if known_path(&segments) => write_error(
            stream,
            405,
            "method-not-allowed",
            &format!("{method} is not supported here"),
            Vec::new(),
        ),
        _ => write_error(
            stream,
            404,
            "not-found",
            &format!("no route for {}", request.path),
            Vec::new(),
        ),
    }
}

/// Whether the path names a real route (for 405-vs-404 classification).
fn known_path(segments: &[&str]) -> bool {
    matches!(
        segments,
        ["healthz"]
            | ["v1", "jobs"]
            | ["v1", "jobs", _]
            | ["v1", "jobs", _, "cancel" | "stream" | "summary"]
            | ["v1", "results"]
            | ["v1", "results", _]
            | ["v1", "results", _, _]
            | ["v1", "shutdown"]
    )
}

fn unknown_job(stream: &mut TcpStream, id: &str) -> io::Result<()> {
    write_error(
        stream,
        404,
        "unknown-job",
        &format!("no job {id}"),
        Vec::new(),
    )
}

fn handle_submit(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let Some(body) = request.json() else {
        return write_error(stream, 400, "bad-request", "body is not JSON", Vec::new());
    };
    let Some(job_request) = JobRequest::from_json(&body) else {
        return write_error(
            stream,
            400,
            "bad-request",
            "body is not a job request (figures + seeds)",
            Vec::new(),
        );
    };
    if job_request.seeds == 0 {
        return write_error(
            stream,
            400,
            "bad-request",
            "seeds must be at least 1",
            Vec::new(),
        );
    }
    if let Err(e) = parse_figures(&job_request.figures.join(",")) {
        return write_error(stream, 400, "unknown-figure", &e, Vec::new());
    }
    match shared.manager.submit(job_request) {
        Ok(id) => {
            if let Some(job) = shared.manager.job(&id) {
                shared.persist_job(&job);
            }
            write_json(
                stream,
                200,
                &JsonValue::Object(vec![("id".to_string(), JsonValue::from_string(&id))]),
            )
        }
        Err(SubmitError::QueueFull { capacity }) => write_error(
            stream,
            429,
            "queue-full",
            &format!("admission queue is at its capacity of {capacity}"),
            vec![("capacity".to_string(), JsonValue::from_u64(capacity as u64))],
        ),
        Err(SubmitError::Draining) => write_error(
            stream,
            503,
            "draining",
            "server is draining for shutdown",
            Vec::new(),
        ),
    }
}

fn handle_cancel(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    match shared.manager.cancel(id) {
        Ok(state) => {
            if let Some(job) = shared.manager.job(id) {
                shared.persist_job(&job);
            }
            write_json(
                stream,
                200,
                &JsonValue::Object(vec![
                    ("id".to_string(), JsonValue::from_string(id)),
                    ("state".to_string(), JsonValue::from_string(state.as_str())),
                ]),
            )
        }
        Err(CancelError::Unknown) => unknown_job(stream, id),
        Err(CancelError::AlreadyFinished(state)) => write_error(
            stream,
            409,
            "already-finished",
            &format!("job {id} is already {}", state.as_str()),
            Vec::new(),
        ),
    }
}

/// Streams the job's journal as chunked JSONL — journal v1 lines verbatim,
/// via [`JournalTailer`], until the job is terminal and the file is
/// drained. A mid-write partial trailing line is never sent.
fn handle_stream(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    if shared.manager.job(id).is_none() {
        return unknown_job(stream, id);
    }
    let mut tailer = JournalTailer::new(shared.journal_path(id));
    let mut writer = ChunkedWriter::begin(stream, "application/x-ndjson")?;
    loop {
        let terminal = shared
            .manager
            .job(id)
            .map(|job| job.state.is_terminal())
            .unwrap_or(true);
        let lines = tailer.poll()?;
        if lines.is_empty() {
            if terminal {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let mut batch = String::new();
        for line in &lines {
            batch.push_str(line);
            batch.push('\n');
        }
        // A hung-up client is "stop streaming", not a server error.
        if writer.chunk(batch.as_bytes()).is_err() {
            return Ok(());
        }
    }
    writer.finish()
}

fn handle_summary(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    if shared.manager.job(id).is_none() {
        return unknown_job(stream, id);
    }
    match std::fs::read_to_string(shared.summary_path(id)) {
        Ok(text) => match JsonValue::parse(&text) {
            Ok(doc) => write_json(stream, 200, &doc),
            Err(e) => write_error(
                stream,
                500,
                "bad-summary",
                &format!("summary does not parse: {e}"),
                Vec::new(),
            ),
        },
        Err(_) => write_error(
            stream,
            404,
            "no-summary",
            &format!("job {id} has not produced a summary yet"),
            Vec::new(),
        ),
    }
}

/// `GET /v1/results` — every job with written artifacts, with the figure
/// IDs found in its directory.
fn handle_results_index(shared: &Arc<Shared>, stream: &mut TcpStream) -> io::Result<()> {
    let mut runs = Vec::new();
    if let Ok(entries) = std::fs::read_dir(shared.results_dir()) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
                continue;
            };
            runs.push(JsonValue::Object(vec![
                ("job".to_string(), JsonValue::from_string(&id)),
                (
                    "figures".to_string(),
                    JsonValue::Array(
                        figure_ids_in(&dir)
                            .iter()
                            .map(JsonValue::from_string)
                            .collect(),
                    ),
                ),
            ]));
        }
    }
    write_json(
        stream,
        200,
        &JsonValue::Object(vec![("runs".to_string(), JsonValue::Array(runs))]),
    )
}

/// The figure IDs with a manifest in `dir`, sorted.
fn figure_ids_in(dir: &PathBuf) -> Vec<String> {
    let mut ids: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter_map(|name| name.strip_suffix(".manifest.json").map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    ids.sort();
    ids
}

/// `GET /v1/results/{job}` — the job's figure list plus its sweep summary
/// (which carries the merged ProfileReport / MonitorTotals when the sweep
/// ran with those on).
fn handle_results_job(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> io::Result<()> {
    let dir = shared.job_results_dir(id);
    if !dir.is_dir() {
        return write_error(
            stream,
            404,
            "no-results",
            &format!("job {id} has no written artifacts"),
            Vec::new(),
        );
    }
    let mut pairs = vec![
        ("job".to_string(), JsonValue::from_string(id)),
        (
            "figures".to_string(),
            JsonValue::Array(
                figure_ids_in(&dir)
                    .iter()
                    .map(JsonValue::from_string)
                    .collect(),
            ),
        ),
    ];
    if let Ok(text) = std::fs::read_to_string(shared.summary_path(id)) {
        if let Ok(doc) = JsonValue::parse(&text) {
            pairs.push(("summary".to_string(), doc));
        }
    }
    write_json(stream, 200, &JsonValue::Object(pairs))
}

/// `GET /v1/results/{job}/{figure}` — one figure's full run manifest.
fn handle_results_figure(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    id: &str,
    figure: &str,
) -> io::Result<()> {
    // Path segments never contain '/', so the figure name cannot escape
    // the job's directory.
    let path = shared
        .job_results_dir(id)
        .join(format!("{figure}.manifest.json"));
    match std::fs::read_to_string(&path) {
        Ok(text) => match JsonValue::parse(&text) {
            Ok(doc) => write_json(stream, 200, &doc),
            Err(e) => write_error(
                stream,
                500,
                "bad-manifest",
                &format!("manifest does not parse: {e}"),
                Vec::new(),
            ),
        },
        Err(_) => write_error(
            stream,
            404,
            "no-manifest",
            &format!("no manifest for figure {figure} of job {id}"),
            Vec::new(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_shared(name: &str) -> Shared {
        let dir = std::env::temp_dir().join(format!("uasn-labd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = Shared::new(ServerConfig::new("127.0.0.1:0", dir));
        std::fs::create_dir_all(shared.jobs_dir()).expect("jobs dir");
        shared
    }

    fn job(id: &str, state: JobState) -> Job {
        Job {
            id: id.to_string(),
            request: JobRequest::new(vec!["SMOKE".to_string()], 1),
            state,
            error: None,
        }
    }

    fn file_names(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("readable dir")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf8")
            })
            .collect();
        names.sort();
        names
    }

    #[test]
    fn persist_leaves_no_temp_file_behind() {
        let shared = fresh_shared("persist");
        shared.persist_job(&job("j0001", JobState::Queued));
        shared.persist_job(&job("j0001", JobState::Done));
        assert_eq!(file_names(&shared.jobs_dir()), ["j0001.job.json"]);
        let text = std::fs::read_to_string(shared.job_file("j0001")).expect("job file");
        let back = JsonValue::parse(&text)
            .ok()
            .as_ref()
            .and_then(Job::from_json)
            .expect("the rewritten record parses");
        assert_eq!(back.state, JobState::Done);
        let _ = std::fs::remove_dir_all(&shared.config.state_dir);
    }

    #[test]
    fn recovery_ignores_a_stray_truncated_temp_file() {
        let shared = fresh_shared("stray-tmp");
        shared.persist_job(&job("j0001", JobState::Interrupted));
        // What a kill between the temp write and the rename leaves behind.
        let record = std::fs::read_to_string(shared.job_file("j0001")).expect("job file");
        let tmp = shared.jobs_dir().join("j0001.job.json.tmp");
        std::fs::write(&tmp, &record[..record.len() / 2]).expect("stray tmp");

        let restarted = Shared::new(shared.config.clone());
        recover_jobs(&restarted).expect("recovery");
        assert_eq!(restarted.manager.jobs().len(), 1, "the .tmp is no job");
        let recovered = restarted.manager.job("j0001").expect("job recovered");
        assert_eq!(
            recovered.state,
            JobState::Queued,
            "interrupted jobs requeue"
        );
        let _ = std::fs::remove_dir_all(&shared.config.state_dir);
    }
}
