//! End-to-end service tests over real sockets: the canonical-identity
//! contract (a server-submitted sweep equals a CLI run), concurrent
//! clients with live streaming, deterministic backpressure over HTTP,
//! restart recovery of queued jobs, and a `kill -9` mid-state resume
//! through the `labd` binary itself.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use uasn_bench::figures::by_id;
use uasn_bench::grid::{run_sweep, SweepOptions};
use uasn_lab::client::{Client, ClientError, JobRequest};
use uasn_lab::journal::LoadedJournal;
use uasn_labd::server::{Server, ServerConfig};
use uasn_sim::json::JsonValue;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uasn-labd-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(state: &Path, runners: usize, capacity: usize) -> (Server, Client) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state.to_path_buf(),
        runners,
        queue_capacity: capacity,
        workers: 2,
    })
    .expect("server starts");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

/// Runs the reference sweep through the CLI-equivalent in-process path
/// (`run_sweep` with a journal, exactly what `lab run --journal` does) and
/// returns the journal's canonical bytes.
fn reference_canonical(name: &str, seeds: u64, workers: usize) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("uasn-labd-ref-{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let outcome = run_sweep(
        &[by_id("SMOKE").expect("SMOKE is registered")],
        &SweepOptions {
            seeds,
            workers,
            journal: Some(path.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("reference sweep runs");
    assert!(outcome.complete, "reference completed: {}", outcome.summary);
    let bytes = LoadedJournal::load(&path)
        .expect("reference journal loads")
        .canonical_bytes();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn canonical(path: &Path) -> Vec<u8> {
    LoadedJournal::load(path)
        .expect("journal loads")
        .canonical_bytes()
}

fn journal_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("journal readable")
        .lines()
        .map(str::to_string)
        .collect()
}

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn server_submitted_sweep_matches_the_cli_run_canonically() {
    let state = fresh_dir("identity");
    let (server, client) = start_server(&state, 1, 4);

    let health = client.health().expect("health");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true));

    let id = client
        .submit(&JobRequest::new(vec!["SMOKE".to_string()], 2))
        .expect("submit");
    assert_eq!(id, "j0001");

    // Stream the journal live while the sweep runs; the call returns only
    // once the job is terminal and the journal is drained.
    let mut streamed: Vec<String> = Vec::new();
    client
        .stream(&id, |line| streamed.push(line.to_string()))
        .expect("stream");

    let doc = client.wait_terminal(&id, WAIT).expect("terminal");
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));

    // The stream is the journal, verbatim: same lines, same order.
    let journal = state.join("jobs").join(format!("{id}.journal.jsonl"));
    assert_eq!(streamed, journal_lines(&journal));

    // Canonical identity vs the CLI path — different worker count on
    // purpose: scheduling metadata must not leak into the contract.
    assert_eq!(canonical(&journal), reference_canonical("identity", 2, 1));

    // Query surface: summary + results index + per-figure manifest.
    let summary = client.summary(&id).expect("summary");
    assert_eq!(
        summary.get("complete").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(summary.get("total").and_then(JsonValue::as_u64), Some(8));

    let index = client.get("/v1/results").expect("results index");
    let runs = index
        .get("runs")
        .and_then(JsonValue::as_array)
        .expect("runs");
    assert_eq!(runs.len(), 1);
    assert_eq!(
        runs[0].get("job").and_then(JsonValue::as_str),
        Some(id.as_str())
    );
    let per_job = client
        .get(&format!("/v1/results/{id}"))
        .expect("job results");
    let figures: Vec<&str> = per_job
        .get("figures")
        .and_then(JsonValue::as_array)
        .expect("figures")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(figures, ["SMOKE"]);
    let manifest = client
        .get(&format!("/v1/results/{id}/SMOKE"))
        .expect("manifest");
    assert_eq!(
        manifest.get("id").and_then(JsonValue::as_str),
        Some("SMOKE"),
        "the manifest names its figure"
    );

    // Unknown routes and jobs answer with structured errors.
    match client.get("/v1/results/j9999") {
        Err(ClientError::Api {
            status: 404, code, ..
        }) => assert_eq!(code, "no-results"),
        other => panic!("expected 404, got {other:?}"),
    }
    match client.job("j9999") {
        Err(ClientError::Api {
            status: 404, code, ..
        }) => assert_eq!(code, "unknown-job"),
        other => panic!("expected 404, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn two_concurrent_clients_stream_while_a_third_submission_is_rejected() {
    let state = fresh_dir("concurrent");
    // One runner and a single queue slot: job A runs, job B waits in the
    // only slot, a third submission has nowhere to go.
    let (server, client) = start_server(&state, 1, 1);

    // Job A is deliberately larger so it is still running while B and the
    // rejected submission arrive.
    let a = client
        .submit(&JobRequest::new(vec!["SMOKE".to_string()], 30))
        .expect("submit a");
    let deadline = Instant::now() + WAIT;
    loop {
        let state = client
            .job(&a)
            .expect("status")
            .get("state")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        if state.as_deref() == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job a never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let b = client
        .submit(&JobRequest::new(vec!["SMOKE".to_string()], 1))
        .expect("submit b (fills the queue)");
    match client.submit(&JobRequest::new(vec!["SMOKE".to_string()], 1)) {
        Err(ClientError::Api {
            status,
            code,
            message,
        }) => {
            assert_eq!(status, 429);
            assert_eq!(code, "queue-full");
            assert!(message.contains('1'), "capacity echoed: {message}");
        }
        other => panic!("expected queue-full, got {other:?}"),
    }

    // Two independent clients stream both jobs concurrently.
    let addr = server.addr().to_string();
    let streamers: Vec<_> = [a.clone(), b.clone()]
        .into_iter()
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut lines = Vec::new();
                Client::new(addr)
                    .stream(&id, |line| lines.push(line.to_string()))
                    .expect("stream");
                (id, lines)
            })
        })
        .collect();
    for streamer in streamers {
        let (id, streamed) = streamer.join().expect("streamer");
        let journal = state.join("jobs").join(format!("{id}.journal.jsonl"));
        assert_eq!(
            streamed,
            journal_lines(&journal),
            "{id}: streamed records match the on-disk journal exactly"
        );
    }
    for id in [&a, &b] {
        let doc = client.wait_terminal(id, WAIT).expect("terminal");
        assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));
    }

    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn admission_only_server_rejects_deterministically_and_recovers_its_queue() {
    let state = fresh_dir("admission");
    // Zero runners: nothing ever pops the queue, so 429 is not a race.
    let (server, client) = start_server(&state, 0, 2);
    let submit = || client.submit(&JobRequest::new(vec!["SMOKE".to_string()], 1));
    let first = submit().expect("first");
    submit().expect("second");
    match submit() {
        Err(ClientError::Api {
            status: 429, code, ..
        }) => assert_eq!(code, "queue-full"),
        other => panic!("expected queue-full, got {other:?}"),
    }
    // Cancelling a queued job frees the slot; submission works again.
    client.cancel(&first).expect("cancel queued");
    let third = submit().expect("slot freed");

    // Malformed submissions and unknown figures are structured 400s.
    match client.submit(&JobRequest::new(vec!["NOPE".to_string()], 1)) {
        Err(ClientError::Api {
            status: 400, code, ..
        }) => assert_eq!(code, "unknown-figure"),
        other => panic!("expected unknown-figure, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    server.wait();

    // Restart on the same state: queued jobs come back queued, the
    // cancelled one stays cancelled, and IDs never collide.
    let (server, client) = start_server(&state, 0, 2);
    let jobs = client.jobs().expect("jobs");
    let states: Vec<(String, String)> = jobs
        .get("jobs")
        .and_then(JsonValue::as_array)
        .expect("array")
        .iter()
        .map(|job| {
            (
                job.get("id")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                job.get("state")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();
    assert!(states.contains(&(first.clone(), "cancelled".to_string())));
    assert!(states.contains(&("j0002".to_string(), "queued".to_string())));
    assert!(states.contains(&(third.clone(), "queued".to_string())));
    // The two recovered jobs refill the capacity-2 queue, so admission is
    // exactly as full as it was before the restart.
    match client.submit(&JobRequest::new(vec!["SMOKE".to_string()], 1)) {
        Err(ClientError::Api { status: 429, .. }) => {}
        other => panic!("recovered queue should be full, got {other:?}"),
    }
    client.cancel("j0002").expect("cancel a recovered job");
    let fresh = client
        .submit(&JobRequest::new(vec!["SMOKE".to_string()], 1))
        .expect("fresh submission after recovery");
    assert_eq!(fresh, "j0004", "recovered IDs advance the sequence");
    client.shutdown().expect("shutdown");
    server.wait();
}

/// Polls `<state>/labd.addr` until the serve subprocess publishes its
/// bound address.
fn wait_for_addr(state: &Path, not: Option<&str>) -> String {
    let path = state.join("labd.addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            let addr = text.trim().to_string();
            if !addr.is_empty() && Some(addr.as_str()) != not {
                return addr;
            }
        }
        assert!(Instant::now() < deadline, "labd never published an address");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A spawned `labd serve` process, killed and reaped on drop so a failed
/// assertion never leaves a server running.
struct Labd(Child);

impl Drop for Labd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_labd(state: &Path) -> Labd {
    let child = Command::new(env!("CARGO_BIN_EXE_labd"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--state",
            state.to_str().expect("utf8 state dir"),
            "--runners",
            "1",
            "--workers",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("labd spawns");
    Labd(child)
}

#[test]
fn killed_server_resumes_its_jobs_and_matches_the_uninterrupted_run() {
    let state = fresh_dir("kill9");
    std::fs::create_dir_all(&state).expect("state dir");

    let first = spawn_labd(&state);
    let addr = wait_for_addr(&state, None);
    let client = Client::new(addr.clone());

    // max_cells is the deterministic interruption: the sweep journals
    // exactly 5 of its 12 cells, the job parks as `interrupted`, and the
    // server is then killed with state on disk mid-sweep.
    let mut request = JobRequest::new(vec!["SMOKE".to_string()], 3);
    request.max_cells = Some(5);
    let id = client.submit(&request).expect("submit");
    let doc = client.wait_terminal(&id, WAIT).expect("terminal");
    assert_eq!(
        doc.get("state").and_then(JsonValue::as_str),
        Some("interrupted")
    );

    drop(first); // kill -9 the server and reap it

    // Restart on the same state dir: recovery requeues the interrupted
    // job without its max_cells bound and run_sweep resumes the journal.
    let _ = std::fs::remove_file(state.join("labd.addr"));
    let mut second = spawn_labd(&state);
    let addr = wait_for_addr(&state, Some(addr.as_str()));
    let client = Client::new(addr);
    let doc = client
        .wait_terminal(&id, WAIT)
        .expect("resumed to terminal");
    assert_eq!(doc.get("state").and_then(JsonValue::as_str), Some("done"));

    // The interrupted-then-resumed journal is canonically identical to an
    // uninterrupted CLI run of the same sweep.
    let journal = state.join("jobs").join(format!("{id}.journal.jsonl"));
    assert_eq!(canonical(&journal), reference_canonical("kill9", 3, 2));

    client.shutdown().expect("shutdown");
    let _ = second.0.wait();
}
