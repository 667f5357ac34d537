//! `BENCHMARK.json`, compiled in: the one list of workloads and metrics,
//! with their units, directions and regression bounds.

use std::sync::OnceLock;

use uasn_sim::json::JsonValue;

/// The repository's benchmark description, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, counts of waste).
    Lower,
    /// Larger is better (rates, ratios of useful work).
    Higher,
}

/// One metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// How much worse `candidate` is than `base`, as a share of `base`
    /// (negative = better).
    pub fn worsening(&self, base: f64, candidate: f64) -> f64 {
        let change = (candidate - base) / base.abs();
        match self.better {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

/// The parsed description.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics the untraced pass reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics the traced pass reports.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let text = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match text(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better,
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in description.
    ///
    /// # Panics
    ///
    /// Panics if the committed `BENCHMARK.json` does not parse (the
    /// crate's tests parse it, so this is a build-breaking bug).
    pub fn get() -> &'static BenchSpec {
        static SPEC: OnceLock<BenchSpec> = OnceLock::new();
        SPEC.get_or_init(|| BenchSpec::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses"))
    }

    /// The metric list a pass reports.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
