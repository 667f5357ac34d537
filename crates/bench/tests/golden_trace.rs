//! Golden-trace regression suite for the transmission fan-out.
//!
//! Every protocol in the roster runs fixed seeded scenarios — two node
//! densities, a swarm column, a mobile cell, a hello-phase cell, busy,
//! drifting-clock and routed cells that also run EW-MAC's no-extra and
//! aggregating variants, and traffic cells for every SDU arrival and
//! routing path — and the FNV-1a hash of each Debug-level JSONL
//! trace export must match the golden checked into `tests/goldens/`. The
//! Debug trace records every event the engine processes, so this is the
//! strongest behavioural lockdown the simulator offers. Every cell also
//! runs with performance profiling and with the online invariant monitors
//! attached; both exports must be **byte-identical** to the plain one, and
//! the monitored pass additionally asserts online/post-hoc parity: over
//! every invariant the streaming monitors cover
//! (`uasn_audit::STREAMED_KINDS`, routing loops included), their findings
//! must equal the offline checker's replay of the exported trace.
//!
//! The sparse, dense and swarm hashes were blessed while a
//! recompute-everything reference fan-out still ran beside the cached one
//! and exported identical bytes; the differential proptests in
//! `crates/phy/tests` (`cache_diff.rs`, `grid_diff.rs`) keep recomputing
//! each link directly against the cache. The busy hashes were blessed
//! while EW-MAC still ran its own copy of the slotted handshake, so they
//! pin the shared core to that behaviour. The traffic hashes were blessed
//! while fresh injections, relays and transport retries still each had
//! their own hop-and-enqueue code and legacy runs their own next-hop scan,
//! so they pin the single SDU path to that behaviour.
//!
//! To bless new goldens after an intentional behaviour change:
//!
//! ```text
//! UASN_UPDATE_GOLDENS=1 cargo test -p uasn-bench --test golden_trace
//! ```

use std::path::PathBuf;

use uasn_audit::invariant::Violation;
use uasn_audit::model::TraceModel;
use uasn_audit::monitor::StreamingMonitor;
use uasn_audit::STREAMED_KINDS;
use uasn_bench::protocols::Protocol;
use uasn_bench::runner::master_seed;
use uasn_net::config::SimConfig;
use uasn_net::node::NodeId;
use uasn_net::topology::Deployment;
use uasn_net::world::Simulation;
use uasn_route::{ForwardPolicy, RouteConfig, TransportConfig};
use uasn_sim::time::SimDuration;
use uasn_sim::trace::{parse_jsonl, TraceLevel, Tracer, DEFAULT_CAPTURE_CAPACITY};

/// The roster under golden lockdown: the paper protocol plus every baseline.
const GOLDEN_PROTOCOLS: [(Protocol, &str); 5] = [
    (Protocol::SFama, "sfama"),
    (Protocol::Ropa, "ropa"),
    (Protocol::CsMac, "csmac"),
    (Protocol::EwMac, "ewmac"),
    (Protocol::Aloha, "aloha"),
];

fn golden_cfg(sensors: u32) -> SimConfig {
    let cfg = SimConfig::paper_default()
        .with_sensors(sensors)
        .with_offered_load_kbps(0.5)
        .with_sim_time(SimDuration::from_secs(40))
        .with_seed(master_seed(0));
    // The goldens pin the paper's perfect-sync regime: ideal clocks and no
    // guard band must stay the default, or every hash silently re-baselines
    // onto a different timing model.
    assert!(
        cfg.clock.is_ideal() && cfg.slot_guard.is_zero(),
        "golden baseline must use ideal clocks and a zero guard band"
    );
    cfg
}

/// Runs one traced cell and returns its lossless Debug capture.
fn traced(cfg: &SimConfig, protocol: Protocol) -> Tracer {
    let factory = move |id: NodeId| protocol.build(id);
    let out = Simulation::new(cfg.clone(), &factory)
        .unwrap_or_else(|e| panic!("{} config rejected: {e}", protocol.name()))
        .with_tracing(TraceLevel::Debug)
        .run_full();
    assert!(
        out.tracer.health().is_lossless(),
        "{}: trace capture dropped records — hashes would depend on capacity",
        protocol.name()
    );
    out.tracer
}

fn export(tracer: &Tracer) -> Vec<u8> {
    let mut buf = Vec::new();
    tracer
        .export_jsonl(&mut buf)
        .expect("in-memory export cannot fail");
    buf
}

/// Runs one traced cell and returns the exported JSONL bytes.
fn trace_bytes(cfg: &SimConfig, protocol: Protocol) -> Vec<u8> {
    export(&traced(cfg, protocol))
}

/// Like [`trace_bytes`], but with monitoring on and the streaming monitors
/// attached as a tracer sink; returns the exported JSONL bytes alongside
/// the monitors' online findings.
fn monitored_trace_bytes(cfg: &SimConfig, protocol: Protocol) -> (Vec<u8>, Vec<Violation>) {
    let monitor = StreamingMonitor::new();
    let factory = move |id: NodeId| protocol.build(id);
    let out = Simulation::new(cfg.clone(), &factory)
        .unwrap_or_else(|e| panic!("{} config rejected: {e}", protocol.name()))
        .with_tracer(
            Tracer::new(TraceLevel::Debug)
                .with_capture(DEFAULT_CAPTURE_CAPACITY)
                .with_sink(monitor.sink()),
        )
        .run_full();
    assert!(
        out.tracer.health().is_lossless(),
        "{}: monitored trace capture dropped records",
        protocol.name()
    );
    let mut buf = Vec::new();
    out.tracer
        .export_jsonl(&mut buf)
        .expect("in-memory export cannot fail");
    (buf, monitor.report().findings)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn goldens_path(density: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("trace_hashes_{density}.txt"))
}

fn load_goldens(density: &str) -> Vec<(String, u64)> {
    let path = goldens_path(density);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hash) = l
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed golden line {l:?}"));
            let hash = u64::from_str_radix(hash.trim(), 16)
                .unwrap_or_else(|e| panic!("malformed golden hash in {l:?}: {e}"));
            (name.to_string(), hash)
        })
        .collect()
}

fn write_goldens(density: &str, hashes: &[(String, u64)]) {
    let path = goldens_path(density);
    std::fs::create_dir_all(path.parent().unwrap()).expect("create goldens dir");
    let mut text = String::from(
        "# FNV-1a 64 hashes of the Debug-level JSONL trace of each seeded golden\n\
         # cell. Regenerate with UASN_UPDATE_GOLDENS=1.\n",
    );
    for (name, hash) in hashes {
        text.push_str(&format!("{name} {hash:016x}\n"));
    }
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Checks `hashes` against the committed goldens for `density`, or rewrites
/// them under `UASN_UPDATE_GOLDENS`.
fn check_goldens(density: &str, hashes: &[(String, u64)]) {
    if std::env::var_os("UASN_UPDATE_GOLDENS").is_some() {
        write_goldens(density, hashes);
        return;
    }
    let goldens = load_goldens(density);
    assert_eq!(
        goldens.len(),
        hashes.len(),
        "golden file covers a different roster; regenerate with UASN_UPDATE_GOLDENS=1"
    );
    for ((got_name, got_hash), (want_name, want_hash)) in hashes.iter().zip(&goldens) {
        assert_eq!(got_name, want_name, "golden roster order changed");
        assert_eq!(
            got_hash, want_hash,
            "{got_name}: trace hash changed — behaviour drifted; if intentional, \
             regenerate with UASN_UPDATE_GOLDENS=1 and review the diff"
        );
    }
}

/// Byte offset of the first difference between two traces.
fn first_divergence(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

/// A trace record a cell exists to pin: `(tag, key, value)` — some record
/// tagged `tag` must carry field `key` equal to `value` (any record with
/// the tag when `key` is empty).
type Pin = (&'static str, &'static str, &'static str);

/// Whether `tracer` holds a record matching `pin`.
fn has_record(tracer: &Tracer, (tag, key, value): Pin) -> bool {
    tracer.with_tag(tag).any(|r| {
        key.is_empty()
            || r.fields
                .iter()
                .any(|(k, v)| k.as_ref() == key && v.to_string() == value)
    })
}

/// Runs one golden cell traced and returns the tracer with its exported
/// bytes, after asserting that profiling and monitoring leave those bytes
/// untouched and that the online monitors agree with the post-hoc
/// checker over every streamed kind (the checker additionally runs
/// whole-trace checks that need the full model).
fn locked_down(name: &str, cfg: &SimConfig, protocol: Protocol) -> (Tracer, Vec<u8>) {
    let tracer = traced(cfg, protocol);
    let plain = export(&tracer);
    assert!(
        !plain.is_empty(),
        "{name}: empty trace — nothing was locked down"
    );
    let profiled = trace_bytes(&cfg.clone().with_profiling(true), protocol);
    assert!(
        plain == profiled,
        "{name}: enabling profiling changed the trace (first divergence at byte {})",
        first_divergence(&plain, &profiled)
    );
    let (monitored, online) = monitored_trace_bytes(&cfg.clone().with_monitoring(true), protocol);
    assert!(
        plain == monitored,
        "{name}: enabling monitoring changed the trace (first divergence at byte {})",
        first_divergence(&plain, &monitored)
    );
    // Online/post-hoc parity: replay the exact bytes the run exported
    // through the offline checker and compare over the shared kinds.
    let records = parse_jsonl(std::str::from_utf8(&monitored).expect("traces are UTF-8"))
        .expect("exported trace parses");
    let post_hoc: Vec<Violation> = uasn_audit::check(&TraceModel::from_records(&records))
        .into_iter()
        .filter(|v| STREAMED_KINDS.contains(&v.kind))
        .collect();
    assert_eq!(
        online, post_hoc,
        "{name}: online monitor findings disagree with the post-hoc checker"
    );
    (tracer, plain)
}

/// Runs the roster on each `(cell, config, pins)` triple, locks each run
/// down, and checks the golden hashes, named `<protocol>-<cell>`, in
/// `trace_hashes_<density>.txt`. Every protocol's trace must contain each
/// of the cell's pinned records, so a cell cannot silently stop covering
/// the path it is there for.
fn check_cells(density: &str, cells: &[(&str, SimConfig, &[Pin])]) {
    let mut hashes = Vec::new();
    for (cell, cfg, pins) in cells {
        for (protocol, slug) in GOLDEN_PROTOCOLS {
            let name = format!("{slug}-{cell}");
            let (tracer, trace) = locked_down(&name, cfg, protocol);
            for &pin in *pins {
                assert!(
                    has_record(&tracer, pin),
                    "{name}: no {pin:?} record — the cell no longer pins that path"
                );
            }
            hashes.push((name, fnv1a64(&trace)));
        }
    }
    check_goldens(density, &hashes);
}

/// Swarm cell: 1 000 sensors in a wide layered column sized for a mean
/// degree in the dozens, with a short horizon and light load — dense
/// enough that the spatial index prunes most of each fan-out, bounded
/// enough to stay tractable in debug CI runs.
fn swarm_cfg() -> SimConfig {
    let mut cfg = golden_cfg(1_000)
        .with_offered_load_kbps(2.0)
        .with_sim_time(SimDuration::from_secs(4));
    cfg.deployment = Deployment::LayeredColumn {
        extent_m: 6_400.0,
        layers: 20,
        layer_spacing_m: 450.0,
    };
    cfg
}

#[test]
fn golden_traces_sparse() {
    check_cells("sparse", &[("sparse", golden_cfg(10), &[])]);
}

#[test]
fn golden_traces_dense() {
    check_cells("dense", &[("dense", golden_cfg(30), &[])]);
}

#[test]
fn golden_traces_swarm() {
    check_cells("swarm", &[("swarm", swarm_cfg(), &[])]);
}

/// Mobile and hello-phase cells: the regimes where fan-out rows are
/// rebuilt mid-run (mobility epochs) or first exercised by on-air beacons
/// rather than by traffic.
#[test]
fn golden_traces_mobile() {
    check_cells(
        "mobile",
        &[
            ("mobile", golden_cfg(10).with_mobility(0.5), &[]),
            (
                "hello",
                SimConfig {
                    hello_init: true,
                    ..golden_cfg(10)
                },
                &[],
            ),
        ],
    );
}

/// EW-MAC's variants under load: the paper protocol, its no-extra
/// ablation and its aggregating twin beside the baselines, in the regimes
/// where the extra-communication path actually runs — a busy cell, a
/// drifting-clock cell and a routed column. Every EW-MAC and aggregating
/// cell must put at least one EXAck on the air, so the hashes pin the
/// whole EXR → EXC → EXData → EXAck exchange, not just the handshake.
#[test]
fn golden_traces_busy() {
    let roster = GOLDEN_PROTOCOLS.into_iter().chain([
        (Protocol::EwMacNoExtra, "ewmac-noextra"),
        (Protocol::EwMacAggregated, "ewmac-agg"),
    ]);
    let mut routed = golden_cfg(40)
        .with_offered_load_kbps(4.0)
        .with_reliable_route()
        .with_sim_time(SimDuration::from_secs(60));
    routed.deployment = Deployment::LayeredColumn {
        extent_m: 2_000.0,
        layers: 4,
        layer_spacing_m: 1_200.0,
    };
    let cells = [
        ("busy", golden_cfg(30).with_offered_load_kbps(2.0)),
        ("drift", golden_cfg(10).with_clock_drift(20.0)),
        ("routed", routed),
    ];
    let mut hashes = Vec::new();
    for (cell, cfg) in &cells {
        for (protocol, slug) in roster.clone() {
            let name = format!("{slug}-{cell}");
            let (tracer, trace) = locked_down(&name, cfg, protocol);
            if matches!(protocol, Protocol::EwMac | Protocol::EwMacAggregated) {
                let exacks = tracer
                    .with_tag("tx")
                    .filter(|r| r.message.starts_with("EXAck["))
                    .count();
                assert!(
                    exacks > 0,
                    "{name}: no EXAck on the air — the extra path is not pinned"
                );
            }
            hashes.push((name, fnv1a64(&trace)));
        }
    }
    check_goldens("busy", &hashes);
}

/// The SDU paths the other cells never reach: batch load, mixed SDU
/// sizes, bursty and convergecast arrivals, the randomized forwarding
/// policy, TTL expiry, transport retries and unroutable hops.
#[test]
fn golden_traces_traffic() {
    // A short base timeout with one retry: transport retries, and their
    // exhaustion, happen inside the cell's horizon.
    let quick_retry = RouteConfig {
        transport: Some(TransportConfig {
            retry_budget: 1,
            base_timeout_us: 8_000_000,
        }),
        ..RouteConfig::greedy()
    };
    let mut batch = golden_cfg(10).with_batch_load_kbps(0.5);
    batch.max_time = SimDuration::from_secs(200);
    // Layers close to the acoustic range: drifting sensors lose their
    // last shallower neighbour mid-run, so hops become unroutable.
    let mut stranding = golden_cfg(10)
        .with_mobility(10.0)
        .with_offered_load_kbps(2.0)
        .with_route(quick_retry)
        .with_sim_time(SimDuration::from_secs(60));
    stranding.deployment = Deployment::LayeredColumn {
        extent_m: 600.0,
        layers: 3,
        layer_spacing_m: 1_450.0,
    };
    let random = RouteConfig::reliable().with_policy(ForwardPolicy::RandomShallowest { k: 2 });
    check_cells(
        "traffic",
        &[
            ("batch", batch, &[("enq", "fwd", "false")]),
            (
                "mixed-size",
                golden_cfg(10).with_data_bits_range(1_024, 4_096),
                &[("enq", "fwd", "true")],
            ),
            (
                "bursty",
                golden_cfg(10)
                    .with_bursty_load_kbps(1.0, 5.0, 15.0)
                    .with_route(quick_retry),
                &[("route", "attempt", "1"), ("e2e-deliver", "", "")],
            ),
            (
                "convergecast",
                golden_cfg(10)
                    .with_convergecast(10.0, 5.0)
                    .with_route(quick_retry),
                &[
                    ("route", "attempt", "1"),
                    ("e2e-drop", "reason", "retry-exhausted"),
                ],
            ),
            (
                "random-k2",
                golden_cfg(10).with_route(random),
                &[("relay", "", ""), ("e2e-deliver", "", "")],
            ),
            (
                "ttl",
                golden_cfg(10).with_route(RouteConfig::greedy().with_ttl(2)),
                &[("e2e-drop", "reason", "ttl-exhausted")],
            ),
            (
                "stranding",
                stranding,
                &[
                    ("e2e-drop", "reason", "unroutable"),
                    ("relay-drop", "reason", "unroutable"),
                ],
            ),
        ],
    );
}
