//! Spans recorded by the benchmark's own code during the traced pass: one
//! root per op, children laid out from the phase durations the public API
//! returns, and one `probe.<metric>` span per layer probe. Kept in memory
//! and written as Chrome trace JSON when the run ends.

use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based, unique within the recorder.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Shared by every span of one op; 0 for probes.
    pub op_id: u64,
    /// Generator thread (Chrome trace lane).
    pub lane: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        parent: u64,
        op_id: u64,
        lane: u64,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            op_id,
            lane,
            name: name.into(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a root span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(0, 0, 0, name, start, end);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover. A root's
    /// descendants are recorded right after it, so the scan stops at the
    /// next root.
    pub fn self_ns(&self, id: u64) -> u64 {
        let span = &self.spans[id as usize - 1];
        let children: u64 = self.spans[id as usize..]
            .iter()
            .take_while(|s| s.parent != 0)
            .filter(|s| s.parent == id)
            .map(|s| {
                s.end_ns
                    .min(span.end_ns)
                    .saturating_sub(s.start_ns.max(span.start_ns))
            })
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Chrome trace (`chrome://tracing`, Perfetto): complete events in µs.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::Str(s.name.clone())),
                    ("ph", Value::Str("X".into())),
                    ("pid", Value::Int(1)),
                    ("tid", Value::Int(s.lane)),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Int(s.id)),
                            ("parent", Value::Int(s.parent)),
                            ("op_id", Value::Int(s.op_id)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([("traceEvents", Value::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_obs::json::{self, Json};

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(Instant::now());
        let root = r.record(0, 7, 0, "op", 1_000, 11_000);
        r.record(root, 7, 0, "compute", 1_000, 4_000);
        let reduce = r.record(root, 7, 0, "reduce", 4_000, 10_500);
        r.record(reduce, 7, 0, "driver_merge", 9_500, 10_500);
        assert_eq!(r.self_ns(root), 500);
        assert_eq!(r.self_ns(reduce), 5_500);
        // A child that overruns its parent only counts the covered part.
        let tight = r.record(0, 8, 0, "op", 0, 100);
        r.record(tight, 8, 0, "reduce", 50, 400);
        assert_eq!(r.self_ns(tight), 50);
    }

    #[test]
    fn chrome_trace_parses_and_keeps_parent_links() {
        let mut r = Recorder::new(Instant::now());
        let root = r.record(0, 1, 2, "op.dense_large", 2_000, 9_000);
        r.record(root, 1, 2, "engine.reduce", 3_000, 8_000);
        r.time("probe.net.pool.cycle_ns", || ());
        let doc = json::parse(&r.chrome_trace().render()).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 3);
        let child = &events[1];
        assert_eq!(
            child.get("name").and_then(Json::as_str),
            Some("engine.reduce")
        );
        assert_eq!(child.get("ts").and_then(Json::as_f64), Some(3.0));
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(5.0));
        assert_eq!(child.get("tid").and_then(Json::as_f64), Some(2.0));
        let args = child.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(args.get("op_id").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("probe.net.pool.cycle_ns")
        );
    }
}
