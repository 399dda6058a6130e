//! The traced run's span log: spans recorded from the benchmark's own
//! files around the calls into each layer, kept in memory and written once
//! at exit as a Chrome trace that `presence_trace`'s reader and validator
//! must accept.

use presence_trace::TraceCheck;
use serde::Value;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted, not stored. Small on
/// purpose: `presence_trace::parse` goes through the workspace's JSON shim,
/// whose string parsing is quadratic in the input, so reading back a 1 MB
/// trace takes 14 s and a 0.25 MB one under a second.
const MAX_SPANS: usize = 4_000;

#[derive(Debug)]
struct Span {
    name: String,
    track: &'static str,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: Option<u64>,
    /// What the span belongs to: `("round", 3)` or `("probe", 1017)`.
    of: (&'static str, u64),
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            dropped: 0,
        }
    }

    /// Nanoseconds since the log was created.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Records one span and returns its id (to parent later spans on).
    pub fn push(
        &mut self,
        name: impl Into<String>,
        track: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<u64>,
        of: (&'static str, u64),
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return id;
        }
        self.spans.push(Span {
            name: name.into(),
            track,
            start_ns,
            end_ns: end_ns.max(start_ns),
            id,
            parent,
            of,
        });
        id
    }

    fn to_chrome_json(&self) -> String {
        let mut tracks: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !tracks.contains(&span.track) {
                tracks.push(span.track);
            }
        }
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let s = |text: &str| Value::Str(text.to_string());
        let mut events = vec![obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", s("presence-benchmark"))])),
        ])];
        for (tid, track) in tracks.iter().enumerate() {
            events.push(obj(vec![
                ("name", s("thread_name")),
                ("ph", s("M")),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(tid as u64)),
                ("args", obj(vec![("name", s(track))])),
            ]));
        }
        for span in &self.spans {
            let tid = tracks
                .iter()
                .position(|t| *t == span.track)
                .expect("track listed");
            let mut args = vec![
                ("id", Value::U64(span.id)),
                (span.of.0, Value::U64(span.of.1)),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent", Value::U64(parent)));
            }
            events.push(obj(vec![
                ("name", s(&span.name)),
                ("cat", s(span.track)),
                ("ph", s("X")),
                ("ts", Value::F64(span.start_ns as f64 / 1000.0)),
                (
                    "dur",
                    Value::F64((span.end_ns - span.start_ns) as f64 / 1000.0),
                ),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(tid as u64)),
                ("args", obj(args)),
            ]));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&serde_json::to_string(event).expect("value serialises"));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the Chrome trace to `path` and reads it back through
    /// `presence_trace`: the file on disk is what gets validated.
    pub fn write_validated(&self, path: &Path) -> Result<TraceCheck, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read back {}: {e}", path.display()))?;
        let trace = presence_trace::parse(&text)?;
        let check = presence_trace::validate(&trace)?;
        if check.slices != self.spans.len() {
            return Err(format!(
                "trace holds {} slices, log holds {} spans",
                check.slices,
                self.spans.len()
            ));
        }
        Ok(check)
    }
}
