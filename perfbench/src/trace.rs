//! Folds the Chrome traces a one-shot run writes (one file per machine)
//! into per-layer self times.
//!
//! A span's *self time* is its duration minus the durations of its
//! synchronous child spans. The `rpc.*` spans are asynchronous: they cover
//! a request in flight while the issuing thread may be computing, so they
//! are never subtracted from a parent; the thread's blocking wait for a
//! response already sits in the self time of the span that waited
//! (`harvest`, `verifyE`, `steal`).

use std::collections::HashMap;
use std::path::Path;

use rads_bench::json::Json;

/// The engine's layers and the span names whose self time each one owns.
/// Time inside a machine's `query` span that no layer owns (the self time
/// of `query`, `drain`, `region_group` and `round`) is the residual.
pub const LAYERS: [(&str, &[&str]); 6] = [
    ("sme", &["sme"]),
    ("region", &["region_grouping"]),
    ("expand", &["expand"]),
    ("verify", &["verifyE"]),
    (
        "fetch",
        &["scatter", "harvest", "prefetch.scatter", "prefetch.harvest"],
    ),
    ("steal", &["steal"]),
];

/// One machine's query, split by layer (µs).
#[derive(Debug, Clone, Default)]
pub struct MachineSplit {
    /// Duration of the machine's `query` span.
    pub query_us: f64,
    /// Self time per layer, in [`LAYERS`] order.
    pub layer_us: [f64; LAYERS.len()],
}

impl MachineSplit {
    /// Query time no layer accounts for.
    pub fn unattributed_us(&self) -> f64 {
        self.query_us - self.layer_us.iter().sum::<f64>()
    }
}

struct Span {
    name: String,
    dur: f64,
    parent: u64,
    rpc: bool,
}

/// Splits the one `query` span of a machine's trace file by layer.
pub fn split_machine(path: &Path) -> Result<MachineSplit, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("bad trace {}: {e}", path.display()))?;
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("trace {} has no traceEvents", path.display()))?;
    let mut spans: HashMap<u64, Span> = HashMap::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let args = event.get("args");
        let field = |key: &str| {
            args.and_then(|a| a.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        spans.insert(
            field("id"),
            Span {
                name: event
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                dur: event.get("dur").and_then(Json::as_f64).unwrap_or(0.0),
                parent: field("parent"),
                rpc: event.get("cat").and_then(Json::as_str) == Some("rpc"),
            },
        );
    }
    let queries: Vec<u64> = spans
        .iter()
        .filter(|(_, s)| s.name == "query")
        .map(|(&id, _)| id)
        .collect();
    let [query] = queries[..] else {
        return Err(format!(
            "trace {} holds {} query spans, expected 1",
            path.display(),
            queries.len()
        ));
    };
    let mut child_us: HashMap<u64, f64> = HashMap::new();
    for span in spans.values().filter(|s| !s.rpc) {
        *child_us.entry(span.parent).or_default() += span.dur;
    }
    let under_query = |mut id: u64| {
        while let Some(span) = spans.get(&id) {
            if id == query {
                return true;
            }
            id = span.parent;
        }
        false
    };
    let mut split = MachineSplit {
        query_us: spans[&query].dur,
        ..MachineSplit::default()
    };
    for (&id, span) in spans.iter().filter(|(_, s)| !s.rpc) {
        let Some(layer) = LAYERS
            .iter()
            .position(|(_, names)| names.contains(&span.name.as_str()))
        else {
            continue;
        };
        if under_query(id) {
            let own = span.dur - child_us.get(&id).copied().unwrap_or(0.0);
            split.layer_us[layer] += own.max(0.0);
        }
    }
    Ok(split)
}
