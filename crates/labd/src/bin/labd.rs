//! The `labd` binary: server and client in one tool.
//!
//! ```text
//! labd serve    [--addr A] [--state DIR] [--runners N] [--queue N] [--workers N]
//! labd submit   [--addr A] --figures LIST [--seeds N] [--workers N]
//!               [--max-cells N] [--profile] [--monitor]
//! labd watch    [--addr A] <job>
//! labd ls       [--addr A]
//! labd status   [--addr A] <job>
//! labd cancel   [--addr A] <job>
//! labd shutdown [--addr A]
//! labd cmp      <journal-a> <journal-b>
//! ```
//!
//! `serve` blocks until a client posts `/v1/shutdown`; its default
//! `--state` is `<results>/labd-state` through the same
//! [`uasn_bench::paths::results_dir`] resolution the CLI figure bins use,
//! so `UASN_RESULTS_DIR` relocates both identically. `submit` prints the
//! assigned job ID on stdout (and nothing else), so shell scripts can
//! capture it. `watch` streams the job's journal lines live and exits with
//! the job's final state. `cmp` compares two checkpoint journals under the
//! canonical-identity contract (records sorted by job ID, scheduling
//! metadata stripped) and exits nonzero when they differ — the CI gate for
//! "a server-submitted sweep equals the CLI run". On a difference it names
//! how many records differ and every field path that does.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use uasn_lab::client::{Client, JobRequest};
use uasn_lab::journal::LoadedJournal;
use uasn_labd::server::{Server, ServerConfig};
use uasn_sim::json::JsonValue;

const DEFAULT_ADDR: &str = "127.0.0.1:4411";

const USAGE: &str = "usage:
  labd serve    [--addr A] [--state DIR] [--runners N] [--queue N] [--workers N]
  labd submit   [--addr A] --figures LIST [--seeds N] [--workers N]
                [--max-cells N] [--profile] [--monitor]
  labd watch    [--addr A] <job>
  labd ls       [--addr A]
  labd status   [--addr A] <job>
  labd cancel   [--addr A] <job>
  labd shutdown [--addr A]
  labd cmp      <journal-a> <journal-b>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("ls") => cmd_ls(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("cancel") => cmd_cancel(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("cmp") => cmd_cmp(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Splits `tokens` into (`--addr` value or default, the rest).
fn take_addr(tokens: &[String]) -> Result<(String, Vec<String>), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut rest = Vec::new();
    let mut tokens = tokens.iter();
    while let Some(token) = tokens.next() {
        if token == "--addr" {
            addr = tokens
                .next()
                .cloned()
                .ok_or_else(|| format!("--addr needs a value\n\n{USAGE}"))?;
        } else {
            rest.push(token.clone());
        }
    }
    Ok((addr, rest))
}

fn parse_usize(flag: &str, value: Option<String>) -> Result<usize, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

fn cmd_serve(tokens: &[String]) -> Result<ExitCode, String> {
    let (addr, rest) = take_addr(tokens)?;
    // Default state dir anchors on the same results-dir resolution as the
    // CLI figure bins, so UASN_RESULTS_DIR relocates both identically.
    let mut config = ServerConfig::new(addr, uasn_bench::paths::results_dir().join("labd-state"));
    let mut rest = rest.into_iter();
    while let Some(token) = rest.next() {
        match token.as_str() {
            "--state" => {
                config.state_dir = PathBuf::from(
                    rest.next()
                        .ok_or_else(|| format!("--state needs a value\n\n{USAGE}"))?,
                );
            }
            "--runners" => config.runners = parse_usize("--runners", rest.next())?,
            "--queue" => config.queue_capacity = parse_usize("--queue", rest.next())?,
            "--workers" => config.workers = parse_usize("--workers", rest.next())?,
            other => return Err(format!("unexpected argument {other:?}\n\n{USAGE}")),
        }
    }
    let server = Server::start(config).map_err(|e| format!("cannot start: {e}"))?;
    eprintln!("labd listening on {}", server.addr());
    server.wait();
    eprintln!("labd drained and stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(tokens: &[String]) -> Result<ExitCode, String> {
    let (addr, rest) = take_addr(tokens)?;
    let mut figures: Option<String> = None;
    let mut request = JobRequest::new(Vec::new(), uasn_bench::DEFAULT_SEEDS);
    let mut rest = rest.into_iter();
    while let Some(token) = rest.next() {
        match token.as_str() {
            "--figures" => {
                figures = Some(
                    rest.next()
                        .ok_or_else(|| format!("--figures needs a value\n\n{USAGE}"))?,
                )
            }
            "--seeds" => request.seeds = parse_usize("--seeds", rest.next())? as u64,
            "--workers" => request.workers = Some(parse_usize("--workers", rest.next())?),
            "--max-cells" => request.max_cells = Some(parse_usize("--max-cells", rest.next())?),
            "--profile" => request.profile = true,
            "--monitor" => request.monitor = true,
            other => return Err(format!("unexpected argument {other:?}\n\n{USAGE}")),
        }
    }
    let figures = figures.ok_or_else(|| format!("submit needs --figures\n\n{USAGE}"))?;
    request.figures = figures
        .split(',')
        .map(str::trim)
        .filter(|f| !f.is_empty())
        .map(str::to_string)
        .collect();
    let id = Client::new(addr)
        .submit(&request)
        .map_err(|e| e.to_string())?;
    println!("{id}");
    Ok(ExitCode::SUCCESS)
}

fn job_arg(rest: &[String], what: &str) -> Result<String, String> {
    match rest {
        [id] => Ok(id.clone()),
        _ => Err(format!("{what} needs exactly one job ID\n\n{USAGE}")),
    }
}

fn cmd_watch(tokens: &[String]) -> Result<ExitCode, String> {
    let (addr, rest) = take_addr(tokens)?;
    let id = job_arg(&rest, "watch")?;
    let client = Client::new(addr);
    client
        .stream(&id, |line| println!("{line}"))
        .map_err(|e| e.to_string())?;
    let doc = client
        .wait_terminal(&id, Duration::from_secs(10))
        .map_err(|e| e.to_string())?;
    let state = doc
        .get("state")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown");
    eprintln!("{id}: {state}");
    Ok(if state == "done" {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_ls(tokens: &[String]) -> Result<ExitCode, String> {
    let (addr, rest) = take_addr(tokens)?;
    if !rest.is_empty() {
        return Err(format!("ls takes no arguments\n\n{USAGE}"));
    }
    let doc = Client::new(addr).jobs().map_err(|e| e.to_string())?;
    let jobs = doc
        .get("jobs")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default();
    for job in jobs {
        let id = job.get("id").and_then(JsonValue::as_str).unwrap_or("?");
        let state = job.get("state").and_then(JsonValue::as_str).unwrap_or("?");
        let figures = job
            .get("request")
            .and_then(|r| r.get("figures"))
            .and_then(JsonValue::as_array)
            .map(|figures| {
                figures
                    .iter()
                    .filter_map(JsonValue::as_str)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default();
        println!("{id}  {state:<12} {figures}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(tokens: &[String]) -> Result<ExitCode, String> {
    let (addr, rest) = take_addr(tokens)?;
    let id = job_arg(&rest, "status")?;
    let doc = Client::new(addr).job(&id).map_err(|e| e.to_string())?;
    println!("{}", doc.to_json());
    Ok(ExitCode::SUCCESS)
}

fn cmd_cancel(tokens: &[String]) -> Result<ExitCode, String> {
    let (addr, rest) = take_addr(tokens)?;
    let id = job_arg(&rest, "cancel")?;
    let doc = Client::new(addr).cancel(&id).map_err(|e| e.to_string())?;
    println!("{}", doc.to_json());
    Ok(ExitCode::SUCCESS)
}

fn cmd_shutdown(tokens: &[String]) -> Result<ExitCode, String> {
    let (addr, rest) = take_addr(tokens)?;
    if !rest.is_empty() {
        return Err(format!("shutdown takes no arguments\n\n{USAGE}"));
    }
    Client::new(addr).shutdown().map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_cmp(tokens: &[String]) -> Result<ExitCode, String> {
    let [a, b] = tokens else {
        return Err(format!("cmp needs exactly two journal paths\n\n{USAGE}"));
    };
    let canonical = |path: &str| {
        LoadedJournal::load(PathBuf::from(path).as_path())
            .map(|j| j.canonical_bytes())
            .map_err(|e| format!("cannot load {path}: {e}"))
    };
    let (bytes_a, bytes_b) = (canonical(a)?, canonical(b)?);
    if bytes_a == bytes_b {
        eprintln!("canonical journals are identical ({} bytes)", bytes_a.len());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "canonical journals DIFFER ({} vs {} bytes): {}",
            bytes_a.len(),
            bytes_b.len(),
            explain_difference(&bytes_a, &bytes_b)
        );
        Ok(ExitCode::FAILURE)
    }
}

/// Where two canonical journals differ: how many of their records
/// (header included) differ, and every field path that differs in any of
/// them, such as `payload.stats.kind_counts`. Arrays count as one field.
fn explain_difference(a: &[u8], b: &[u8]) -> String {
    let (a, b) = (String::from_utf8_lossy(a), String::from_utf8_lossy(b));
    let (lines_a, lines_b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let mut paths = std::collections::BTreeSet::new();
    let mut differing = 0;
    for (la, lb) in lines_a.iter().zip(&lines_b) {
        if la == lb {
            continue;
        }
        differing += 1;
        match (JsonValue::parse(la), JsonValue::parse(lb)) {
            (Ok(ja), Ok(jb)) => differing_paths(&ja, &jb, "", &mut paths),
            _ => {
                paths.insert("(unparsable record)".to_string());
            }
        }
    }
    let mut text = format!("{differing} of {} records differ", lines_a.len());
    if lines_a.len() != lines_b.len() {
        text.push_str(&format!(
            " ({} vs {} records)",
            lines_a.len(),
            lines_b.len()
        ));
    }
    if !paths.is_empty() {
        let paths: Vec<String> = paths.into_iter().collect();
        text.push_str(&format!(", in {}", paths.join(", ")));
    }
    text
}

/// Adds to `out` the path of every field where `a` and `b` differ,
/// descending through objects; a key present on one side only counts.
fn differing_paths(
    a: &JsonValue,
    b: &JsonValue,
    prefix: &str,
    out: &mut std::collections::BTreeSet<String>,
) {
    let (Some(fa), Some(fb)) = (a.as_object(), b.as_object()) else {
        if a != b {
            out.insert(prefix.to_string());
        }
        return;
    };
    let path = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    for (key, va) in fa {
        match b.get(key) {
            Some(vb) => differing_paths(va, vb, &path(key), out),
            None => {
                out.insert(path(key));
            }
        }
    }
    for (key, _) in fb {
        if a.get(key).is_none() {
            out.insert(path(key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differences_are_explained_by_field_path() {
        let a = b"{\"v\":1}\n{\"job\":\"a\",\"payload\":{\"stats\":{\"n\":1,\"k\":[1]},\"x\":2}}\n";
        let b = b"{\"v\":1}\n{\"job\":\"a\",\"payload\":{\"stats\":{\"n\":2,\"k\":[2]},\"y\":2}}\n";
        assert_eq!(
            explain_difference(a, b),
            "1 of 2 records differ, in payload.stats.k, payload.stats.n, payload.x, payload.y"
        );
        assert_eq!(explain_difference(a, a), "0 of 2 records differ");
        let short = b"{\"v\":1}\n";
        assert_eq!(
            explain_difference(a, short),
            "0 of 2 records differ (2 vs 1 records)"
        );
    }
}
