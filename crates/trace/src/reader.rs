//! Parses a Chrome JSON trace file back into typed events.
//!
//! The reader is intentionally tolerant of fields it does not know (it
//! keeps raw `args`) but strict about the structure it relies on: a top
//! level `traceEvents` array of objects, each with at least `ph` — the
//! contract [`crate::validate()`] and the `spotter` analytics build on.

use serde::Value;

/// One parsed trace event (a line of the `traceEvents` array).
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name (empty when absent).
    pub name: String,
    /// Phase: `M`, `X`, `i`, `s`, `t`, `f`, `C`, …
    pub ph: String,
    /// Event category (empty when absent).
    pub cat: String,
    /// Timestamp in microseconds (0 for metadata events).
    pub ts: f64,
    /// Slice duration in microseconds (`X` events).
    pub dur: Option<f64>,
    /// Process id.
    pub pid: u64,
    /// Thread id, when present.
    pub tid: Option<u64>,
    /// Flow correlation id (`s`/`t`/`f` events).
    pub id: Option<u64>,
    /// Raw `args` object fields.
    pub args: Vec<(String, Value)>,
}

impl ChromeEvent {
    /// Convenience: a named argument as `f64`, if present and numeric.
    pub(crate) fn arg_f64(&self, name: &str) -> Option<f64> {
        field(&self.args, name).and_then(as_f64)
    }

    /// Convenience: a named argument as a string, if present.
    fn arg_str(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| {
                if let Value::Str(s) = v {
                    Some(s.as_str())
                } else {
                    None
                }
            })
    }
}

/// A parsed trace: the `traceEvents` array in file order.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    /// Every event, in file order.
    pub events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// The name a `thread_name` metadata event gave `tid`, if any.
    pub(crate) fn thread_name(&self, tid: u64) -> Option<&str> {
        self.events
            .iter()
            .find(|e| e.ph == "M" && e.name == "thread_name" && e.tid == Some(tid))
            .and_then(|e| e.arg_str("name"))
    }
}

fn field<'v>(fields: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// Parses Chrome JSON trace text into a [`ChromeTrace`].
///
/// # Errors
///
/// Returns a description of the first structural problem: unparseable
/// JSON, a missing `traceEvents` array, or an event without a `ph`.
pub fn parse(json: &str) -> Result<ChromeTrace, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let fields = root
        .as_object()
        .ok_or_else(|| "trace root must be an object".to_string())?;
    let events = field(fields, "traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "trace must contain a `traceEvents` array".to_string())?;
    let mut parsed = Vec::with_capacity(events.len());
    for (index, event) in events.iter().enumerate() {
        let fields = event
            .as_object()
            .ok_or_else(|| format!("traceEvents[{index}] is not an object"))?;
        let ph = field(fields, "ph")
            .and_then(|v| {
                if let Value::Str(s) = v {
                    Some(s.clone())
                } else {
                    None
                }
            })
            .ok_or_else(|| format!("traceEvents[{index}] has no `ph`"))?;
        let string_of = |name: &str| -> String {
            match field(fields, name) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            }
        };
        parsed.push(ChromeEvent {
            name: string_of("name"),
            cat: string_of("cat"),
            ph,
            ts: field(fields, "ts").and_then(as_f64).unwrap_or(0.0),
            dur: field(fields, "dur").and_then(as_f64),
            pid: field(fields, "pid").and_then(as_u64).unwrap_or(0),
            tid: field(fields, "tid").and_then(as_u64),
            id: field(fields, "id").and_then(as_u64),
            args: field(fields, "args")
                .and_then(Value::as_object)
                .map(<[(String, Value)]>::to_vec)
                .unwrap_or_default(),
        });
    }
    Ok(ChromeTrace { events: parsed })
}
