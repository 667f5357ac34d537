//! Structured, level-gated event tracing with pluggable sinks.
//!
//! A [`Tracer`] collects timestamped, categorised [`TraceRecord`]s during a
//! run. Protocol code emits records through the level gate, so disabled
//! tracing is nearly free: nothing is built or allocated below the gate.
//! Records carry **structured fields** — typed key/value pairs — alongside
//! the free-form message, so downstream tooling can filter and aggregate
//! without re-parsing strings.
//!
//! A record can also be emitted **typed**, as a [`TraceEvent`] through
//! [`Tracer::record_event`]. Its text (message and fields) is rendered at
//! most once per record, and only when a built-in text sink is attached;
//! a custom sink receives the event itself through
//! [`TraceSink::accept_event`] and may read it without any text at all.
//! A custom sink that implements only [`TraceSink::accept`] gets the
//! rendered record, so both emission paths reach every sink.
//!
//! Three sinks are built in, and custom ones plug in via [`TraceSink`]:
//!
//! * [`CaptureSink`] — bounded in-memory `Vec` with an explicit
//!   `dropped_records` counter; what the integration tests assert against.
//! * [`RingSink`] — bounded ring buffer keeping only the most recent records;
//!   the right choice for long runs where only the tail matters.
//! * [`JsonlSink`] — streams each record as one JSON line (schema versioned,
//!   see [`TRACE_SCHEMA`] / [`TRACE_SCHEMA_VERSION`]) to any `io::Write`.
//!
//! JSONL output is deterministic: the same record sequence serialises to the
//! same bytes, which is what lets the test suite assert that identical seeds
//! produce byte-identical traces. [`parse_jsonl`] reads a trace back
//! losslessly.

use std::any::Any;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::io;

use crate::json::{format_f64, JsonError, JsonValue};
use crate::time::SimTime;

/// Schema identifier written in the JSONL header line.
pub const TRACE_SCHEMA: &str = "uasn-trace";

/// Version of the JSONL record layout; bump on breaking changes.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Severity/verbosity of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// Always-on: protocol violations, accounting mismatches.
    Error,
    /// Major protocol milestones: handshake completed, packet delivered.
    Info,
    /// Per-frame detail: every transmission, reception, collision.
    Debug,
}

impl TraceLevel {
    /// The level's JSONL encoding ("ERROR" / "INFO" / "DEBUG").
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Error => "ERROR",
            TraceLevel::Info => "INFO",
            TraceLevel::Debug => "DEBUG",
        }
    }

    fn from_str(s: &str) -> Option<TraceLevel> {
        match s {
            "ERROR" => Some(TraceLevel::Error),
            "INFO" => Some(TraceLevel::Info),
            "DEBUG" => Some(TraceLevel::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed structured value attached to a trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
impl_field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_json(&self) -> JsonValue {
        let (key, value) = match self {
            FieldValue::U64(v) => ("u64", JsonValue::from_u64(*v)),
            FieldValue::I64(v) => ("i64", JsonValue::from_i64(*v)),
            FieldValue::F64(v) => ("f64", JsonValue::from_f64(*v)),
            FieldValue::Bool(v) => ("bool", JsonValue::Bool(*v)),
            FieldValue::Str(v) => ("str", JsonValue::String(v.clone())),
        };
        JsonValue::Object(vec![(key.to_string(), value)])
    }

    fn from_json(v: &JsonValue) -> Option<FieldValue> {
        let pairs = v.as_object()?;
        let (key, value) = pairs.first()?;
        match key.as_str() {
            "u64" => value.as_u64().map(FieldValue::U64),
            "i64" => value.as_i64().map(FieldValue::I64),
            "f64" => value.as_f64().map(FieldValue::F64),
            "bool" => value.as_bool().map(FieldValue::Bool),
            "str" => value.as_str().map(|s| FieldValue::Str(s.to_string())),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => f.write_str(&format_f64(*v)),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// A named structured field.
pub type Field = (Cow<'static, str>, FieldValue);

/// Builds a [`Field`] from a static name and any convertible value.
pub fn field(name: &'static str, value: impl Into<FieldValue>) -> Field {
    (Cow::Borrowed(name), value.into())
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When the event happened in simulation time.
    pub time: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Which simulated entity produced it (node index), if any.
    pub node: Option<usize>,
    /// Short category tag, e.g. `"tx"`, `"rx"`, `"collision"`, `"extra"`.
    pub tag: Cow<'static, str>,
    /// Free-form detail.
    pub message: String,
    /// Structured key/value detail, in emission order.
    pub fields: Vec<Field>,
}

impl TraceRecord {
    /// The text record of a typed event: its header plus the message and
    /// fields [`TraceEvent::render`] gives.
    pub fn from_event(
        time: SimTime,
        level: TraceLevel,
        node: Option<usize>,
        tag: &'static str,
        event: &dyn TraceEvent,
    ) -> TraceRecord {
        let (message, fields) = event.render();
        TraceRecord {
            time,
            level,
            node,
            tag: Cow::Borrowed(tag),
            message,
            fields,
        }
    }

    /// Serialises this record as one compact JSON object (no newline).
    ///
    /// Layout (schema v1): `t` is microseconds since simulation start;
    /// `node`, `msg`, and `fields` are omitted when absent/empty so lines
    /// stay small; field values are wrapped in a single-key object naming
    /// their type (`{"u64":5}`) so parsing is lossless.
    pub fn to_json_line(&self) -> String {
        let mut pairs = vec![
            ("t".to_string(), JsonValue::from_u64(self.time.as_micros())),
            (
                "level".to_string(),
                JsonValue::from_string(self.level.as_str()),
            ),
        ];
        if let Some(node) = self.node {
            pairs.push(("node".to_string(), JsonValue::from_u64(node as u64)));
        }
        pairs.push(("tag".to_string(), JsonValue::from_string(self.tag.as_ref())));
        if !self.message.is_empty() {
            pairs.push((
                "msg".to_string(),
                JsonValue::from_string(self.message.clone()),
            ));
        }
        if !self.fields.is_empty() {
            let items = self
                .fields
                .iter()
                .map(|(name, value)| {
                    JsonValue::Array(vec![JsonValue::from_string(name.as_ref()), value.to_json()])
                })
                .collect();
            pairs.push(("fields".to_string(), JsonValue::Array(items)));
        }
        JsonValue::Object(pairs).to_json()
    }

    /// Parses one record from its JSON representation.
    pub fn from_json(v: &JsonValue) -> Result<TraceRecord, JsonError> {
        let bad = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        let time = v
            .get("t")
            .and_then(JsonValue::as_u64)
            .map(SimTime::from_micros)
            .ok_or_else(|| bad("record missing `t`"))?;
        let level = v
            .get("level")
            .and_then(JsonValue::as_str)
            .and_then(TraceLevel::from_str)
            .ok_or_else(|| bad("record missing or invalid `level`"))?;
        let node = v
            .get("node")
            .and_then(JsonValue::as_u64)
            .map(|n| n as usize);
        let tag = v
            .get("tag")
            .and_then(JsonValue::as_str)
            .map(|s| Cow::Owned(s.to_string()))
            .ok_or_else(|| bad("record missing `tag`"))?;
        let message = v
            .get("msg")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        let mut fields = Vec::new();
        if let Some(items) = v.get("fields").and_then(JsonValue::as_array) {
            for item in items {
                let pair = item.as_array().ok_or_else(|| bad("field is not a pair"))?;
                let [name, value] = pair else {
                    return Err(bad("field pair is not length 2"));
                };
                let name = name
                    .as_str()
                    .ok_or_else(|| bad("field name is not a string"))?;
                let value = FieldValue::from_json(value)
                    .ok_or_else(|| bad("field value has unknown type tag"))?;
                fields.push((Cow::Owned(name.to_string()), value));
            }
        }
        Ok(TraceRecord {
            time,
            level,
            node,
            tag,
            message,
            fields,
        })
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(
                f,
                "[{} {} n{} {}] {}",
                self.time, self.level, n, self.tag, self.message
            )?,
            None => write!(
                f,
                "[{} {} {}] {}",
                self.time, self.level, self.tag, self.message
            )?,
        }
        for (name, value) in &self.fields {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

/// The JSONL header line identifying schema and version.
pub fn jsonl_header() -> String {
    JsonValue::Object(vec![
        ("schema".to_string(), JsonValue::from_string(TRACE_SCHEMA)),
        (
            "version".to_string(),
            JsonValue::from_u64(TRACE_SCHEMA_VERSION as u64),
        ),
    ])
    .to_json()
}

/// Serialises `records` as schema-versioned JSONL (header line + one line
/// per record).
pub fn export_jsonl<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    out: &mut impl io::Write,
) -> io::Result<()> {
    writeln!(out, "{}", jsonl_header())?;
    for record in records {
        writeln!(out, "{}", record.to_json_line())?;
    }
    Ok(())
}

/// Parses a JSONL trace produced by [`export_jsonl`] or [`JsonlSink`],
/// validating the schema header.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceRecord>, JsonError> {
    let mut lines = input.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or_else(|| JsonError {
        offset: 0,
        message: "empty trace (missing header line)".to_string(),
    })?;
    let header = JsonValue::parse(header_line)?;
    let schema = header.get("schema").and_then(JsonValue::as_str);
    let version = header.get("version").and_then(JsonValue::as_u64);
    if schema != Some(TRACE_SCHEMA) || version != Some(TRACE_SCHEMA_VERSION as u64) {
        return Err(JsonError {
            offset: 0,
            message: format!(
                "unsupported trace header (want schema {TRACE_SCHEMA} v{TRACE_SCHEMA_VERSION}): {header_line}"
            ),
        });
    }
    lines
        .map(|line| TraceRecord::from_json(&JsonValue::parse(line)?))
        .collect()
}

/// Loss/health accounting for a [`Tracer`]'s sinks, surfaced in run
/// manifests so downstream audits can refuse or warn on lossy traces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceHealth {
    /// Records discarded by capture sinks once their cap was reached.
    pub capture_dropped: u64,
    /// Records evicted from ring sinks to make room for newer ones.
    pub ring_evicted: u64,
    /// Number of JSONL sinks that hit an I/O error (each stops writing at
    /// its first error, so the stream is truncated).
    pub io_errors: u64,
    /// Human-readable description of the first I/O error, if any.
    pub first_io_error: Option<String>,
    /// Total record lines successfully written by JSONL sinks.
    pub jsonl_lines: u64,
}

impl TraceHealth {
    /// Whether every emitted record was retained or written somewhere
    /// without loss.
    pub fn is_lossless(&self) -> bool {
        self.capture_dropped == 0 && self.ring_evicted == 0 && self.io_errors == 0
    }

    /// Folds another health report in (counts add; the earliest-seen I/O
    /// error description is kept).
    pub fn merge(&mut self, other: &TraceHealth) {
        self.capture_dropped += other.capture_dropped;
        self.ring_evicted += other.ring_evicted;
        self.io_errors += other.io_errors;
        if self.first_io_error.is_none() {
            self.first_io_error = other.first_io_error.clone();
        }
        self.jsonl_lines += other.jsonl_lines;
    }

    /// Serialises the report as a JSON object: the four counters in field
    /// order, then `first_io_error` only when one was seen.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            (
                "capture_dropped".to_string(),
                JsonValue::from_u64(self.capture_dropped),
            ),
            (
                "ring_evicted".to_string(),
                JsonValue::from_u64(self.ring_evicted),
            ),
            ("io_errors".to_string(), JsonValue::from_u64(self.io_errors)),
            (
                "jsonl_lines".to_string(),
                JsonValue::from_u64(self.jsonl_lines),
            ),
        ];
        if let Some(err) = &self.first_io_error {
            pairs.push(("first_io_error".to_string(), JsonValue::from_string(err)));
        }
        JsonValue::Object(pairs)
    }

    /// Reconstructs a report from its [`TraceHealth::to_json`] form. Keys
    /// beyond those it writes are ignored. Returns `None` when a counter is
    /// missing or not an unsigned integer.
    pub fn from_json(doc: &JsonValue) -> Option<TraceHealth> {
        Some(TraceHealth {
            capture_dropped: doc.get("capture_dropped")?.as_u64()?,
            ring_evicted: doc.get("ring_evicted")?.as_u64()?,
            io_errors: doc.get("io_errors")?.as_u64()?,
            jsonl_lines: doc.get("jsonl_lines")?.as_u64()?,
            first_io_error: doc
                .get("first_io_error")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        })
    }
}

/// A typed trace record body: an event that knows how to render its own
/// message and structured fields.
///
/// Emitted through [`Tracer::record_event`]. A sink that understands the
/// concrete type downcasts it (`Any` is a supertrait) and skips the text;
/// every other sink sees [`TraceEvent::render`]'s output.
pub trait TraceEvent: Any {
    /// The record's free-form message and structured fields, exactly as a
    /// text sink stores them.
    fn render(&self) -> (String, Vec<Field>);
}

/// A destination for trace records.
///
/// Sinks receive every record that passes the tracer's level gate, in
/// emission order. Implementations must not reorder records.
pub trait TraceSink {
    /// Consumes one record.
    fn accept(&mut self, record: &TraceRecord);

    /// Consumes one typed record. The default renders the event and hands
    /// the text record to [`TraceSink::accept`], so a sink that only reads
    /// text works unchanged; a sink that reads the event type overrides it.
    fn accept_event(
        &mut self,
        time: SimTime,
        level: TraceLevel,
        node: Option<usize>,
        tag: &'static str,
        event: &dyn TraceEvent,
    ) {
        self.accept(&TraceRecord::from_event(time, level, node, tag, event));
    }

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Bounded in-memory sink: stores up to `capacity` records, then counts
/// drops instead of growing.
#[derive(Debug, Default)]
pub struct CaptureSink {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl CaptureSink {
    /// A capture sink holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        CaptureSink {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Stored records, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// How many records were discarded once the cap was reached.
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for CaptureSink {
    fn accept(&mut self, record: &TraceRecord) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
        } else {
            self.records.push(record.clone());
        }
    }
}

/// Bounded ring sink: keeps only the most recent `capacity` records,
/// counting evictions. Suited to long runs where only the tail matters.
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    evicted: u64,
}

impl RingSink {
    /// A ring sink holding the last `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// How many records have been evicted to make room.
    pub fn evicted_records(&self) -> u64 {
        self.evicted
    }
}

impl TraceSink for RingSink {
    fn accept(&mut self, record: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(record.clone());
    }
}

/// Streaming JSONL sink: writes the schema header then one JSON line per
/// record to any writer.
pub struct JsonlSink {
    writer: Box<dyn io::Write + Send>,
    wrote_header: bool,
    lines_written: u64,
    /// First I/O error encountered, if any (subsequent records are skipped).
    error: Option<io::Error>,
}

impl JsonlSink {
    /// A JSONL sink streaming into `writer`.
    pub fn new(writer: Box<dyn io::Write + Send>) -> Self {
        JsonlSink {
            writer,
            wrote_header: false,
            lines_written: 0,
            error: None,
        }
    }

    /// How many record lines have been written (excluding the header).
    pub fn lines_written(&self) -> u64 {
        self.lines_written
    }

    /// The first I/O error hit while streaming, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn try_write(&mut self, record: &TraceRecord) -> io::Result<()> {
        if !self.wrote_header {
            writeln!(self.writer, "{}", jsonl_header())?;
            self.wrote_header = true;
        }
        writeln!(self.writer, "{}", record.to_json_line())?;
        self.lines_written += 1;
        Ok(())
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("wrote_header", &self.wrote_header)
            .field("lines_written", &self.lines_written)
            .field("errored", &self.error.is_some())
            .finish()
    }
}

impl TraceSink for JsonlSink {
    fn accept(&mut self, record: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_write(record) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

enum SinkImpl {
    Capture(CaptureSink),
    Ring(RingSink),
    Jsonl(JsonlSink),
    Custom(Box<dyn TraceSink + Send>),
}

impl SinkImpl {
    fn as_sink_mut(&mut self) -> &mut dyn TraceSink {
        match self {
            SinkImpl::Capture(s) => s,
            SinkImpl::Ring(s) => s,
            SinkImpl::Jsonl(s) => s,
            SinkImpl::Custom(s) => s.as_mut(),
        }
    }
}

impl fmt::Debug for SinkImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkImpl::Capture(s) => s.fmt(f),
            SinkImpl::Ring(s) => s.fmt(f),
            SinkImpl::Jsonl(s) => s.fmt(f),
            SinkImpl::Custom(_) => f.write_str("CustomSink"),
        }
    }
}

/// Default capture-sink capacity: a safety valve so pathological runs can't
/// exhaust memory.
pub const DEFAULT_CAPTURE_CAPACITY: usize = 4_000_000;

/// Routes trace records at or above a configured level to its sinks.
///
/// # Examples
///
/// ```
/// use uasn_sim::trace::{field, Field, TraceEvent, Tracer, TraceLevel};
/// use uasn_sim::time::SimTime;
///
/// /// A reception of `bits` bits.
/// struct Rx {
///     bits: u64,
/// }
///
/// impl TraceEvent for Rx {
///     fn render(&self) -> (String, Vec<Field>) {
///         (format!("{} bits", self.bits), vec![field("bits", self.bits)])
///     }
/// }
///
/// let mut tracer = Tracer::capturing(TraceLevel::Info);
/// tracer.record_event(SimTime::ZERO, TraceLevel::Info, Some(3), "rx", &Rx { bits: 9600 });
/// tracer.record_event(SimTime::ZERO, TraceLevel::Debug, Some(3), "rx", &Rx { bits: 64 });
/// assert_eq!(tracer.records().len(), 1); // Debug was below the gate
/// assert_eq!(tracer.records()[0].message, "9600 bits");
/// ```
#[derive(Debug)]
pub struct Tracer {
    level: Option<TraceLevel>,
    sinks: Vec<SinkImpl>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that drops everything (the default for benchmark runs).
    pub fn disabled() -> Self {
        Tracer {
            level: None,
            sinks: Vec::new(),
        }
    }

    /// A tracer routing records at or above `level` to no sinks yet; add
    /// sinks with the `with_*` builders.
    pub fn new(level: TraceLevel) -> Self {
        Tracer {
            level: Some(level),
            sinks: Vec::new(),
        }
    }

    /// A tracer that stores records at or above `level` in a bounded
    /// in-memory [`CaptureSink`].
    pub fn capturing(level: TraceLevel) -> Self {
        Tracer::new(level).with_capture(DEFAULT_CAPTURE_CAPACITY)
    }

    /// Adds a bounded in-memory capture sink.
    pub fn with_capture(mut self, capacity: usize) -> Self {
        self.sinks
            .push(SinkImpl::Capture(CaptureSink::with_capacity(capacity)));
        self
    }

    /// Adds a bounded ring sink keeping the most recent `capacity` records.
    pub fn with_ring(mut self, capacity: usize) -> Self {
        self.sinks
            .push(SinkImpl::Ring(RingSink::with_capacity(capacity)));
        self
    }

    /// Adds a streaming JSONL sink writing into `writer`.
    pub fn with_jsonl(mut self, writer: Box<dyn io::Write + Send>) -> Self {
        self.sinks.push(SinkImpl::Jsonl(JsonlSink::new(writer)));
        self
    }

    /// Adds a custom sink.
    pub fn with_sink(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.sinks.push(SinkImpl::Custom(sink));
        self
    }

    /// Whether a record at `level` would be kept.
    pub fn enabled(&self, level: TraceLevel) -> bool {
        matches!(self.level, Some(gate) if level <= gate)
    }

    /// Records a typed event if the level gate admits it. The gate is the
    /// first check, so a gated-off event is never rendered. Custom sinks
    /// receive the event itself; the event is rendered at most once, and
    /// only when a capture, ring or JSONL sink is attached.
    pub fn record_event(
        &mut self,
        time: SimTime,
        level: TraceLevel,
        node: Option<usize>,
        tag: &'static str,
        event: &dyn TraceEvent,
    ) {
        if !self.enabled(level) {
            return;
        }
        let mut text = None;
        for sink in &mut self.sinks {
            match sink {
                SinkImpl::Custom(custom) => custom.accept_event(time, level, node, tag, event),
                builtin => {
                    let record = text.get_or_insert_with(|| {
                        TraceRecord::from_event(time, level, node, tag, event)
                    });
                    builtin.as_sink_mut().accept(record);
                }
            }
        }
    }

    /// All records stored by the first capture sink, in emission order
    /// (empty if no capture sink is attached).
    pub fn records(&self) -> &[TraceRecord] {
        self.sinks
            .iter()
            .find_map(|s| match s {
                SinkImpl::Capture(c) => Some(c.records()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// The most recent records retained by the first ring sink, oldest
    /// first (empty if no ring sink is attached).
    pub fn recent(&self) -> impl Iterator<Item = &TraceRecord> {
        self.sinks
            .iter()
            .find_map(|s| match s {
                SinkImpl::Ring(r) => Some(r.iter()),
                _ => None,
            })
            .into_iter()
            .flatten()
    }

    /// Captured records whose tag matches `tag`.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records().iter().filter(move |r| r.tag == tag)
    }

    /// Total records discarded across capture caps and ring evictions.
    pub fn dropped(&self) -> u64 {
        self.sinks
            .iter()
            .map(|s| match s {
                SinkImpl::Capture(c) => c.dropped_records(),
                SinkImpl::Ring(r) => r.evicted_records(),
                _ => 0,
            })
            .sum()
    }

    /// Aggregated loss/health accounting across all attached sinks.
    pub fn health(&self) -> TraceHealth {
        let mut health = TraceHealth::default();
        for sink in &self.sinks {
            match sink {
                SinkImpl::Capture(c) => health.capture_dropped += c.dropped_records(),
                SinkImpl::Ring(r) => health.ring_evicted += r.evicted_records(),
                SinkImpl::Jsonl(j) => {
                    health.jsonl_lines += j.lines_written();
                    if let Some(e) = j.io_error() {
                        health.io_errors += 1;
                        if health.first_io_error.is_none() {
                            health.first_io_error = Some(e.to_string());
                        }
                    }
                }
                SinkImpl::Custom(_) => {}
            }
        }
        health
    }

    /// Flushes streaming sinks.
    pub fn flush(&mut self) -> io::Result<()> {
        for sink in &mut self.sinks {
            sink.as_sink_mut().flush()?;
        }
        Ok(())
    }

    /// Exports the captured records as schema-versioned JSONL.
    pub fn export_jsonl(&self, out: &mut impl io::Write) -> io::Result<()> {
        export_jsonl(self.records(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A typed record with a fixed message and fields.
    struct Text(&'static str, Vec<Field>);

    impl TraceEvent for Text {
        fn render(&self) -> (String, Vec<Field>) {
            (self.0.to_string(), self.1.clone())
        }
    }

    fn rec(tracer: &mut Tracer, level: TraceLevel, tag: &'static str) {
        tracer.record_event(SimTime::ZERO, level, Some(0), tag, &Text("", Vec::new()));
    }

    fn sample_record() -> TraceRecord {
        TraceRecord {
            time: SimTime::from_micros(1_234_567),
            level: TraceLevel::Info,
            node: Some(7),
            tag: Cow::Borrowed("tx"),
            message: "DATA to n3 \"quoted\"\nline2".into(),
            fields: vec![
                field("bits", 9_600u64),
                field("delta", -12i64),
                field("snr_db", 14.25f64),
                field("ok", true),
                field("peer", "n3"),
            ],
        }
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::disabled();
        rec(&mut t, TraceLevel::Error, "x");
        assert!(t.records().is_empty());
        assert!(!t.enabled(TraceLevel::Error));
    }

    #[test]
    fn level_gate_orders_correctly() {
        let t = Tracer::capturing(TraceLevel::Info);
        assert!(t.enabled(TraceLevel::Error));
        assert!(t.enabled(TraceLevel::Info));
        assert!(!t.enabled(TraceLevel::Debug));
    }

    #[test]
    fn records_are_stored_in_order() {
        let mut t = Tracer::capturing(TraceLevel::Debug);
        rec(&mut t, TraceLevel::Info, "a");
        rec(&mut t, TraceLevel::Debug, "b");
        let tags: Vec<&str> = t.records().iter().map(|r| r.tag.as_ref()).collect();
        assert_eq!(tags, ["a", "b"]);
    }

    #[test]
    fn with_tag_filters() {
        let mut t = Tracer::capturing(TraceLevel::Debug);
        rec(&mut t, TraceLevel::Info, "tx");
        rec(&mut t, TraceLevel::Info, "rx");
        rec(&mut t, TraceLevel::Info, "tx");
        assert_eq!(t.with_tag("tx").count(), 2);
        assert_eq!(t.with_tag("collision").count(), 0);
    }

    #[test]
    fn capacity_limit_counts_drops() {
        let mut t = Tracer::new(TraceLevel::Debug).with_capture(2);
        for _ in 0..5 {
            rec(&mut t, TraceLevel::Info, "x");
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn ring_sink_keeps_the_tail() {
        let mut t = Tracer::new(TraceLevel::Debug).with_ring(3);
        for tag in ["a", "b", "c", "d", "e"] {
            rec(&mut t, TraceLevel::Info, tag);
        }
        let tags: Vec<&str> = t.recent().map(|r| r.tag.as_ref()).collect();
        assert_eq!(tags, ["c", "d", "e"]);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn ring_sink_evicts_strictly_oldest_first() {
        // Direct RingSink exercise (no Tracer): across several full
        // wraps, the retained window must always be exactly the last
        // `capacity` records in acceptance order, and every eviction
        // must have removed the then-oldest record.
        let mut ring = RingSink::with_capacity(3);
        for i in 0..10u64 {
            let mut r = sample_record();
            r.message = i.to_string();
            ring.accept(&r);
            let kept: Vec<u64> = ring.iter().map(|r| r.message.parse().unwrap()).collect();
            let window_start = (i + 1).saturating_sub(3);
            let expect: Vec<u64> = (window_start..=i).collect();
            assert_eq!(kept, expect, "after accepting record {i}");
            assert_eq!(ring.evicted_records(), window_start);
        }
    }

    #[test]
    fn ring_sink_zero_capacity_clamps_to_one() {
        let mut ring = RingSink::with_capacity(0);
        for tag in ["a", "b"] {
            let mut r = sample_record();
            r.tag = Cow::Borrowed(tag);
            ring.accept(&r);
        }
        let tags: Vec<&str> = ring.iter().map(|r| r.tag.as_ref()).collect();
        assert_eq!(tags, ["b"]);
        assert_eq!(ring.evicted_records(), 1);
    }

    #[test]
    fn multiple_sinks_all_receive() {
        let mut t = Tracer::new(TraceLevel::Debug).with_capture(10).with_ring(2);
        for tag in ["a", "b", "c"] {
            rec(&mut t, TraceLevel::Info, tag);
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.recent().count(), 2);
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let original = vec![
            sample_record(),
            TraceRecord {
                time: SimTime::ZERO,
                level: TraceLevel::Error,
                node: None,
                tag: Cow::Borrowed("violation"),
                message: String::new(),
                fields: Vec::new(),
            },
        ];
        let mut buf = Vec::new();
        export_jsonl(&original, &mut buf).expect("export");
        let text = String::from_utf8(buf).expect("utf8");
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed, original);
    }

    #[test]
    fn jsonl_sink_streams_with_header() {
        let mut t = Tracer::new(TraceLevel::Debug).with_jsonl(Box::new(SharedBuf::default()));
        // Keep a second handle onto the same buffer to inspect afterwards.
        let probe = SharedBuf::default();
        let mut t2 = Tracer::new(TraceLevel::Debug).with_jsonl(Box::new(probe.clone()));
        for t in [&mut t, &mut t2] {
            t.record_event(
                SimTime::from_secs(1),
                TraceLevel::Info,
                Some(1),
                "tx",
                &Text("x", vec![field("bits", 64u64)]),
            );
        }
        t2.flush().expect("flush");
        let text = probe.contents();
        let mut lines = text.lines();
        assert!(lines.next().expect("header").contains(TRACE_SCHEMA));
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].fields, vec![field("bits", 64u64)]);
    }

    #[test]
    fn jsonl_rejects_wrong_schema() {
        assert!(parse_jsonl("{\"schema\":\"other\",\"version\":1}\n").is_err());
        assert!(parse_jsonl("").is_err());
    }

    #[test]
    fn parse_jsonl_reports_malformed_inputs() {
        let header = jsonl_header();
        // Future schema version.
        let err = parse_jsonl("{\"schema\":\"uasn-trace\",\"version\":999}\n").unwrap_err();
        assert!(err.message.contains("unsupported trace header"), "{err:?}");
        // Header is not JSON at all.
        assert!(parse_jsonl("not json\n").is_err());
        // Record line is truncated mid-object.
        assert!(parse_jsonl(&format!("{header}\n{{\"t\":1,\"lev\n")).is_err());
        // Record missing required keys.
        for bad in [
            "{\"level\":\"INFO\",\"tag\":\"tx\"}",         // no `t`
            "{\"t\":1,\"tag\":\"tx\"}",                    // no `level`
            "{\"t\":1,\"level\":\"LOUD\",\"tag\":\"tx\"}", // unknown level
            "{\"t\":1,\"level\":\"INFO\"}",                // no `tag`
            "{\"t\":1,\"level\":\"INFO\",\"tag\":\"tx\",\"fields\":[[\"b\"]]}", // short pair
            "{\"t\":1,\"level\":\"INFO\",\"tag\":\"tx\",\"fields\":[[\"b\",{\"vec\":1}]]}", // bad type tag
        ] {
            let doc = format!("{header}\n{bad}\n");
            assert!(parse_jsonl(&doc).is_err(), "accepted malformed: {bad}");
        }
        // Sanity: a well-formed minimal record still parses.
        let ok = format!("{header}\n{{\"t\":1,\"level\":\"INFO\",\"tag\":\"tx\"}}\n");
        assert_eq!(parse_jsonl(&ok).expect("parse").len(), 1);
    }

    #[test]
    fn health_aggregates_sink_loss() {
        let mut t = Tracer::new(TraceLevel::Debug)
            .with_capture(2)
            .with_ring(1)
            .with_jsonl(Box::new(SharedBuf::default()));
        for _ in 0..4 {
            rec(&mut t, TraceLevel::Info, "x");
        }
        let h = t.health();
        assert_eq!(h.capture_dropped, 2);
        assert_eq!(h.ring_evicted, 3);
        assert_eq!(h.io_errors, 0);
        assert_eq!(h.jsonl_lines, 4);
        assert!(!h.is_lossless());
        assert!(Tracer::capturing(TraceLevel::Info).health().is_lossless());

        let mut merged = TraceHealth::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.capture_dropped, 4);
        assert_eq!(merged.jsonl_lines, 8);
    }

    #[test]
    fn health_captures_io_errors() {
        struct FailingWriter;
        impl io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut t = Tracer::new(TraceLevel::Debug).with_jsonl(Box::new(FailingWriter));
        rec(&mut t, TraceLevel::Info, "x");
        let h = t.health();
        assert_eq!(h.io_errors, 1);
        assert!(h.first_io_error.as_deref().unwrap().contains("disk full"));
        assert!(!h.is_lossless());
    }

    #[test]
    fn trace_health_round_trips() {
        let health = TraceHealth {
            capture_dropped: 3,
            ring_evicted: 1,
            io_errors: 1,
            first_io_error: Some("disk full".to_string()),
            jsonl_lines: 42,
        };
        assert_eq!(
            TraceHealth::from_json(&health.to_json()),
            Some(health.clone())
        );
        let clean = TraceHealth::default();
        assert_eq!(TraceHealth::from_json(&clean.to_json()), Some(clean));
    }

    #[test]
    fn identical_records_serialise_to_identical_bytes() {
        let a = sample_record();
        let b = sample_record();
        assert_eq!(a.to_json_line(), b.to_json_line());
    }

    /// A typed event that counts its renders.
    struct Counted(Rc<Cell<u32>>);

    impl TraceEvent for Counted {
        fn render(&self) -> (String, Vec<Field>) {
            self.0.set(self.0.get() + 1);
            ("counted".into(), vec![field("n", 1u64)])
        }
    }

    #[test]
    fn record_event_skips_render_when_disabled() {
        let renders = Rc::new(Cell::new(0));
        let mut t = Tracer::capturing(TraceLevel::Info);
        t.record_event(
            SimTime::ZERO,
            TraceLevel::Debug,
            None,
            "x",
            &Counted(renders.clone()),
        );
        Tracer::disabled().record_event(
            SimTime::ZERO,
            TraceLevel::Error,
            None,
            "x",
            &Counted(renders.clone()),
        );
        assert_eq!(renders.get(), 0, "a gated-off event was rendered");
        assert!(t.records().is_empty());
    }

    #[test]
    fn record_event_renders_once_for_all_text_sinks() {
        let renders = Rc::new(Cell::new(0));
        let mut t = Tracer::new(TraceLevel::Debug)
            .with_capture(4)
            .with_ring(4)
            .with_jsonl(Box::new(SharedBuf::default()));
        t.record_event(
            SimTime::from_micros(5),
            TraceLevel::Info,
            Some(2),
            "c",
            &Counted(renders.clone()),
        );
        assert_eq!(renders.get(), 1, "three text sinks share one rendering");
        let record = &t.records()[0];
        assert_eq!(record.message, "counted");
        assert_eq!(record.fields, vec![field("n", 1u64)]);
        assert_eq!((record.node, record.tag.as_ref()), (Some(2), "c"));
        assert_eq!(t.recent().count(), 1);
        assert_eq!(t.health().jsonl_lines, 1);
    }

    #[test]
    fn custom_sinks_get_the_event_or_its_rendering() {
        /// Reads the event type when it can, like a typed consumer.
        struct Typed(std::sync::Arc<std::sync::Mutex<Vec<String>>>);
        impl TraceSink for Typed {
            fn accept(&mut self, record: &TraceRecord) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("text {}", record.message));
            }
            fn accept_event(
                &mut self,
                _: SimTime,
                _: TraceLevel,
                _: Option<usize>,
                tag: &'static str,
                event: &dyn TraceEvent,
            ) {
                let typed = (event as &dyn Any).is::<Counted>();
                self.0.lock().unwrap().push(format!("event {tag} {typed}"));
            }
        }
        /// Implements only `accept`: the default hands it the rendering.
        struct TextOnly(std::sync::Arc<std::sync::Mutex<Vec<String>>>);
        impl TraceSink for TextOnly {
            fn accept(&mut self, record: &TraceRecord) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("text {}", record.message));
            }
        }
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let renders = Rc::new(Cell::new(0));
        let mut t = Tracer::new(TraceLevel::Debug)
            .with_sink(Box::new(Typed(seen.clone())))
            .with_sink(Box::new(TextOnly(seen.clone())));
        t.record_event(
            SimTime::ZERO,
            TraceLevel::Debug,
            None,
            "c",
            &Counted(renders.clone()),
        );
        assert_eq!(*seen.lock().unwrap(), ["event c true", "text counted"]);
        assert_eq!(renders.get(), 1, "only the text-only sink needed the text");
    }

    #[test]
    fn display_includes_node_tag_and_fields() {
        let s = sample_record().to_string();
        assert!(s.contains("n7"), "{s}");
        assert!(s.contains("tx"), "{s}");
        assert!(s.contains("bits=9600"), "{s}");
        assert!(s.contains("snr_db=14.25"), "{s}");
    }

    /// A cloneable in-memory writer for inspecting streamed output.
    #[derive(Default, Clone)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().expect("lock").clone()).expect("utf8")
        }
    }

    impl io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}
