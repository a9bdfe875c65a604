//! Span arithmetic over the obs event log: a span's self time is its
//! duration minus the part of its interval its child spans cover.
//!
//! The benchmark opens every span itself (`EventSink::span` /
//! `Span::child`, around calls into the product); the product's own
//! `rt.download` span has no parent and is ignored here.

use asymshare_obs::{Event, Value};
use std::collections::{HashMap, HashSet};

/// One closed span, in microseconds on the sink's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub kind: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

fn field<'a>(event: &'a Event, name: &str) -> Option<&'a Value> {
    event
        .fields
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// The spans among `events` emitted by `component` (every event carrying
/// `span`, `start` and `dur_us` fields).
pub fn spans_of(events: &[Event], component: &str) -> Vec<SpanRec> {
    events
        .iter()
        .filter(|e| e.component == component)
        .filter_map(|e| {
            Some(SpanRec {
                id: as_f64(field(e, "span")?)? as u64,
                parent: field(e, "parent").and_then(as_f64).map(|p| p as u64),
                kind: e.kind,
                start_us: as_f64(field(e, "start")?)? * 1e6,
                dur_us: as_f64(field(e, "dur_us")?)?,
            })
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite span bounds"));
    let mut total = 0.0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let inside = covered(kids, s.start_us, s.start_us + s.dur_us);
            (s.id, (s.dur_us - inside).max(0.0))
        })
        .collect()
}

/// Where the time of a set of root spans went.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Summed duration of the root spans.
    pub total_us: f64,
    /// Root self time: what no child span covers.
    pub unattributed_us: f64,
    /// Summed self time of the descendants, by span kind.
    pub by_kind: HashMap<&'static str, f64>,
}

impl Breakdown {
    /// Self time of `kind` as a share of the roots' total (0 when empty).
    pub fn share(&self, kind: &str) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        self.by_kind.get(kind).copied().unwrap_or(0.0) / self.total_us
    }

    /// Root self time as a share of the roots' total.
    pub fn unattributed_share(&self) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        self.unattributed_us / self.total_us
    }
}

/// Attributes the time of the root spans `roots` (ids) to their
/// descendants' kinds.
pub fn breakdown(spans: &[SpanRec], roots: &[u64]) -> Breakdown {
    let selfs = self_times(spans);
    let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let roots: HashSet<u64> = roots.iter().copied().collect();
    let mut out = Breakdown::default();
    for id in &roots {
        if let Some(root) = by_id.get(id) {
            out.total_us += root.dur_us;
            out.unattributed_us += selfs[id];
        }
    }
    // A span belongs to a root if walking its parent chain reaches one.
    for s in spans {
        let mut cursor = s.parent;
        while let Some(p) = cursor {
            if roots.contains(&p) {
                *out.by_kind.entry(s.kind).or_default() += selfs[&s.id];
                break;
            }
            cursor = by_id.get(&p).and_then(|parent| parent.parent);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, kind: &'static str, start: f64, dur: f64) -> SpanRec {
        SpanRec {
            id,
            parent,
            kind,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(1, None, "op", 0.0, 100.0),
            span(2, Some(1), "a", 10.0, 30.0),
            span(3, Some(1), "b", 50.0, 20.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50.0);
        assert_eq!(selfs[&2], 30.0);
        assert_eq!(selfs[&3], 20.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children cover [10,40] and [30,60]: the union is 50 µs, not 60.
        let spans = [
            span(1, None, "op", 0.0, 100.0),
            span(2, Some(1), "a", 10.0, 30.0),
            span(3, Some(1), "b", 30.0, 30.0),
        ];
        assert_eq!(self_times(&spans)[&1], 50.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        // The child outlives its parent by 50 µs; only [80,100] counts.
        let spans = [
            span(1, None, "op", 0.0, 100.0),
            span(2, Some(1), "a", 80.0, 70.0),
        ];
        assert_eq!(self_times(&spans)[&1], 80.0);
        // Rounding can make children sum past the parent: never negative.
        let spans = [
            span(1, None, "op", 0.0, 10.0),
            span(2, Some(1), "a", 0.0, 11.0),
        ];
        assert_eq!(self_times(&spans)[&1], 0.0);
    }

    #[test]
    fn breakdown_attributes_grandchildren_and_skips_other_roots() {
        let spans = [
            span(1, None, "op", 0.0, 100.0),
            span(2, Some(1), "fetch", 0.0, 90.0),
            span(3, Some(2), "decode", 10.0, 40.0),
            span(4, None, "op", 200.0, 100.0), // not selected
            span(5, Some(4), "fetch", 200.0, 100.0),
        ];
        let b = breakdown(&spans, &[1]);
        assert_eq!(b.total_us, 100.0);
        assert_eq!(b.unattributed_us, 10.0);
        assert_eq!(b.by_kind["fetch"], 50.0);
        assert_eq!(b.by_kind["decode"], 40.0);
        assert!((b.share("decode") - 0.4).abs() < 1e-12);
        assert!((b.unattributed_share() - 0.1).abs() < 1e-12);
        assert_eq!(b.share("absent"), 0.0);
    }

    #[test]
    fn spans_are_read_from_obs_events() {
        let sink = asymshare_obs::EventSink::new();
        let op = sink.span("bench", "op");
        let child = op.child("rlnc.decode");
        let child_id = child.id();
        drop(child);
        let op_id = op.id();
        drop(op);
        sink.emit("bench", "note", &[("x", 1u64.into())]); // not a span
        let spans = spans_of(&sink.events(), "bench");
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.id == child_id).expect("child");
        assert_eq!(child.parent, Some(op_id));
        assert_eq!(child.kind, "rlnc.decode");
        assert!(spans_of(&sink.events(), "other").is_empty());
    }
}
