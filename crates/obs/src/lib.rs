//! **asymshare-obs** — lightweight observability for the asymshare runtimes.
//!
//! Two primitives, both dependency-free and safe to leave compiled into
//! production paths:
//!
//! * a [`Registry`] of named metrics — monotonic [`Counter`]s, last-value
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s — backed by relaxed atomics
//!   so hot paths (the transport send loop, the peer serving loop) record
//!   without locks;
//! * an [`EventSink`] of structured [`Event`]s — timestamped, per-component,
//!   JSONL-serializable — for replaying *sequences* (slot allocations,
//!   heal/reassignment decisions) that point-in-time metrics cannot capture,
//!   plus [`Span`] guards that record wall-clock durations per component.
//!
//! Over the event log, [`health::replay`] folds a per-peer health report —
//! an operator's view that no policy reads, with nothing to set — and
//! [`stream::TraceTree`] nests its spans.
//!
//! # Disabled-path cost model
//!
//! Both types are handles around an `Option<Arc<...>>`. A disabled registry
//! or sink (the types' `Default`) hands out handles whose inner cell is
//! `None`, so every `inc`/`record`/`emit` is a single pointer-is-null
//! branch — no atomics, no allocation, no formatting. Enabled counters cost
//! one relaxed `fetch_add`; enabled events cost one mutex push of
//! preformatted fields. Metric *registration* (name lookup) takes a lock,
//! so hot paths create their handles once and hold them.
//!
//! ```
//! use asymshare_obs::{Registry, EventSink};
//!
//! let metrics = Registry::new();
//! let sent = metrics.counter("transport.send_bytes");
//! sent.add(1460);
//! let sink = EventSink::new();
//! sink.emit_at(1.0, "sim.heal", "write_off", &[("conn", 3u64.into())]);
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("transport.send_bytes"), Some(1460));
//! assert_eq!(sink.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod health;
pub mod stream;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Histogram bucket count: upper bounds `2^0 .. 2^31`, plus one overflow
/// bucket. Power-of-two bounds keep `record` at a `leading_zeros` and cover
/// everything from coalesce batch sizes (≤ 8) to byte counts.
const HISTOGRAM_BUCKETS: usize = 33;

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        // Value in (2^(i-1), 2^i] lands in bucket i; beyond 2^31 overflows
        // into the last bucket.
        ((64 - (value - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper bound (inclusive) of bucket `i`; `u64::MAX` for the overflow bucket.
fn bucket_bound(i: usize) -> u64 {
    if i + 1 < HISTOGRAM_BUCKETS {
        1u64 << i
    } else {
        u64::MAX
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64` bit patterns so credit weights and rates fit.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// A named-metric registry. Cloning shares the underlying store; the
/// `Default` registry is disabled and hands out inert handles (see the
/// crate docs for the cost model).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name`, created on first use. Handles are cheap
    /// clones of one shared cell: hold them in hot paths instead of
    /// re-looking them up.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                let mut map = inner.counters.lock().expect("counter registry lock");
                Arc::clone(map.entry(name.to_owned()).or_default())
            }),
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                let mut map = inner.gauges.lock().expect("gauge registry lock");
                Arc::clone(map.entry(name.to_owned()).or_default())
            }),
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|inner| {
                let mut map = inner.histograms.lock().expect("histogram registry lock");
                Arc::clone(map.entry(name.to_owned()).or_default())
            }),
        }
    }

    /// A consistent point-in-time copy of every metric, names sorted.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("counter registry lock")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("gauge registry lock")
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("histogram registry lock")
            .iter()
            .map(|(name, core)| {
                let buckets = core
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((bucket_bound(i), n))
                    })
                    .collect();
                (
                    name.clone(),
                    HistogramSnapshot {
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                        buckets,
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A monotonic counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value gauge handle holding an `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// A fixed-bucket histogram handle (power-of-two bounds, see crate docs).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.cell {
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(value, Ordering::Relaxed);
            core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// `(inclusive upper bound, observations)` for each non-empty bucket,
    /// bounds ascending; the overflow bucket reports `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`p` in `[0, 1]`) estimated from the power-of-two
    /// buckets by linear interpolation inside the containing bucket. The
    /// overflow bucket has no finite upper bound; observations there report
    /// the last finite bound (an underestimate, flagged by `sum`/`mean`).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut cumulative = 0u64;
        let mut lower = 0u64;
        for &(le, n) in &self.buckets {
            if (cumulative + n) as f64 >= rank {
                if le == u64::MAX {
                    return lower as f64;
                }
                let within = (rank - cumulative as f64) / n as f64;
                return lower as f64 + (le - lower) as f64 * within;
            }
            cumulative += n;
            lower = if le == u64::MAX { lower } else { le };
        }
        lower as f64
    }
}

/// Point-in-time copy of a whole [`Registry`], names sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Whether nothing was recorded (also true for disabled registries).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serializes to one JSON object: `{"counters": {..}, "gauges": {..},
    /// "histograms": {..}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, &self.gauges, |out, v| push_f64(out, *v));
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, &self.histograms, |out, h| {
            out.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"mean\": ",
                h.count, h.sum
            ));
            push_f64(out, h.mean());
            out.push_str(", \"buckets\": [");
            for (i, (le, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{le}, {n}]"));
            }
            out.push_str("]}");
        });
        out.push_str("}\n}\n");
        out
    }

    /// Renders an aligned human-readable table.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<44} count {} sum {} mean {:.1} p50 {:.1} p95 {:.1} p99 {:.1}\n",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.percentile(0.50),
                    h.percentile(0.95),
                    h.percentile(0.99)
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

fn push_entries<T>(
    out: &mut String,
    entries: &[(String, T)],
    mut value: impl FnMut(&mut String, &T),
) {
    for (i, (name, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(out, name);
        out.push_str(": ");
        value(out, v);
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// JSON has no NaN/Infinity; map them to null rather than emit invalid text.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Event sink
// ---------------------------------------------------------------------------

/// One structured event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One recorded event: a timestamp (simulated or wall-clock seconds, the
/// emitter's choice), the emitting component, an event kind, and fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds — simulated time for `SimRuntime` events, seconds since sink
    /// creation for the threaded runtime.
    pub ts: f64,
    /// Emitting component, e.g. `"sim.heal"` or `"rt.transport"`.
    pub component: &'static str,
    /// Event kind within the component, e.g. `"write_off"`.
    pub kind: &'static str,
    /// Structured payload fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Serializes to one JSON object (one JSONL line, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ts\": ");
        push_f64(&mut out, self.ts);
        out.push_str(", \"component\": ");
        push_json_string(&mut out, self.component);
        out.push_str(", \"kind\": ");
        push_json_string(&mut out, self.kind);
        for (name, value) in &self.fields {
            out.push_str(", ");
            push_json_string(&mut out, name);
            out.push_str(": ");
            match value {
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::I64(v) => out.push_str(&v.to_string()),
                Value::F64(v) => push_f64(&mut out, *v),
                Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                Value::Str(v) => push_json_string(&mut out, v),
            }
        }
        out.push('}');
        out
    }
}

/// Default [`EventSink`] ring capacity: old events are evicted past this.
const DEFAULT_EVENT_CAPACITY: usize = 64 * 1024;

struct SinkState {
    /// Ring of the most recent events; older ones were evicted.
    events: VecDeque<Event>,
    capacity: usize,
    /// Total events ever emitted; `total - events.len()` is both the
    /// sequence number of the oldest retained event and the number of
    /// events evicted.
    total: u64,
}

impl SinkState {
    fn evicted(&self) -> u64 {
        self.total - self.events.len() as u64
    }
}

impl std::fmt::Debug for SinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkState")
            .field("events", &self.events.len())
            .field("capacity", &self.capacity)
            .field("total", &self.total)
            .field("dropped", &self.evicted())
            .finish()
    }
}

#[derive(Debug)]
struct SinkInner {
    state: Mutex<SinkState>,
    epoch: Instant,
    /// Span-id allocator; 0 is reserved for "no span" (disabled sinks).
    next_span: AtomicU64,
}

/// An in-memory structured event log. Cloning shares the log; the
/// `Default` sink is disabled and drops everything at a single branch (see
/// the crate docs for the cost model).
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    inner: Option<Arc<SinkInner>>,
}

impl EventSink {
    /// An enabled, empty sink with the default ring capacity (65 536
    /// events). Wall-clock [`emit`](Self::emit) timestamps count from this
    /// moment.
    pub fn new() -> EventSink {
        EventSink::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled sink retaining at most `capacity` events in memory; older
    /// events are evicted (see [`dropped_events`](Self::dropped_events)).
    pub fn with_capacity(capacity: usize) -> EventSink {
        EventSink {
            inner: Some(Arc::new(SinkInner {
                state: Mutex::new(SinkState {
                    events: VecDeque::new(),
                    capacity: capacity.max(1),
                    total: 0,
                }),
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an event with an explicit timestamp (simulated runtimes pass
    /// simulated seconds so replays are deterministic).
    pub fn emit_at(
        &self,
        ts: f64,
        component: &'static str,
        kind: &'static str,
        fields: &[(&'static str, Value)],
    ) {
        if self.inner.is_some() {
            self.push(Event {
                ts,
                component,
                kind,
                fields: fields.to_vec(),
            });
        }
    }

    fn push(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().expect("event sink lock");
        state.events.push_back(event);
        state.total += 1;
        if state.events.len() > state.capacity {
            state.events.pop_front();
        }
    }

    /// Records an event stamped with seconds since sink creation.
    pub fn emit(
        &self,
        component: &'static str,
        kind: &'static str,
        fields: &[(&'static str, Value)],
    ) {
        if let Some(inner) = &self.inner {
            let ts = inner.epoch.elapsed().as_secs_f64();
            self.emit_at(ts, component, kind, fields);
        }
    }

    /// Seconds elapsed since sink creation — the wall-clock timeline
    /// [`emit`](Self::emit) stamps events on. 0.0 when disabled.
    pub fn now_secs(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |inner| inner.epoch.elapsed().as_secs_f64())
    }

    fn alloc_span_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens a span: the returned guard emits one `kind` event with
    /// `dur_us` and `span` fields when dropped, stamped at the span's
    /// *start*. Spans nest via [`Span::child`].
    pub fn span(&self, component: &'static str, kind: &'static str) -> Span {
        Span {
            sink: self.clone(),
            component,
            kind,
            start: Instant::now(),
            id: self.alloc_span_id(),
            parent: None,
        }
    }

    /// Records an already-closed span covering `[start, end]` (seconds on
    /// the emitter's timeline), stamped at `ts` — pass the current time so
    /// the event log stays monotonic even for lifecycles reconstructed
    /// after the fact. Returns the new span's id (0 when disabled).
    #[allow(clippy::too_many_arguments)] // span geometry + identity are all scalars
    pub fn emit_span_at(
        &self,
        ts: f64,
        start: f64,
        end: f64,
        component: &'static str,
        kind: &'static str,
        parent: Option<u64>,
        fields: &[(&'static str, Value)],
    ) -> u64 {
        if self.inner.is_none() {
            return 0;
        }
        let id = self.alloc_span_id();
        let dur_us = ((end - start).max(0.0) * 1e6).round() as u64;
        let mut all: Vec<(&'static str, Value)> = vec![
            ("dur_us", dur_us.into()),
            ("span", id.into()),
            ("start", start.into()),
        ];
        if let Some(parent) = parent {
            all.push(("parent", parent.into()));
        }
        all.extend_from_slice(fields);
        self.push(Event {
            ts,
            component,
            kind,
            fields: all,
        });
        id
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            inner.state.lock().expect("event sink lock").events.len()
        })
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever emitted, including ones since evicted.
    pub fn total_emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner.state.lock().expect("event sink lock").total
        })
    }

    /// Events evicted from the ring.
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner.state.lock().expect("event sink lock").evicted()
        })
    }

    /// A copy of every retained event, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .state
                .lock()
                .expect("event sink lock")
                .events
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Serializes the retained log as JSONL (one event object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

/// Guard returned by [`EventSink::span`]; emits its duration on drop.
/// Spans carry an id and an optional parent id so lifecycles nest into a
/// trace tree (see [`stream::TraceTree`]).
#[derive(Debug)]
pub struct Span {
    sink: EventSink,
    component: &'static str,
    kind: &'static str,
    start: Instant,
    id: u64,
    parent: Option<u64>,
}

impl Span {
    /// This span's id (0 for a disabled sink).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span under this one, in the same component.
    pub fn child(&self, kind: &'static str) -> Span {
        Span {
            sink: self.sink.clone(),
            component: self.component,
            kind,
            start: Instant::now(),
            id: self.sink.alloc_span_id(),
            parent: Some(self.id),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.sink.inner {
            let ts = (self.start - inner.epoch).as_secs_f64();
            let dur_us = self.start.elapsed().as_micros() as u64;
            let mut fields: Vec<(&'static str, Value)> = vec![
                ("dur_us", dur_us.into()),
                ("span", self.id.into()),
                ("start", ts.into()),
            ];
            if let Some(parent) = self.parent {
                fields.push(("parent", parent.into()));
            }
            self.sink.emit_at(ts, self.component, self.kind, &fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let registry = Registry::new();
        let a = registry.counter("a");
        let a2 = registry.counter("a"); // same cell
        a.inc();
        a2.add(4);
        registry.counter("b").inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.counter("b"), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(
            snap.counters
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b"],
            "snapshot names are sorted"
        );
    }

    #[test]
    fn gauges_hold_floats() {
        let registry = Registry::new();
        let g = registry.gauge("credit");
        g.set(1234.5);
        assert_eq!(g.get(), 1234.5);
        g.set(-3.0);
        assert_eq!(registry.snapshot().gauge("credit"), Some(-3.0));
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let registry = Registry::new();
        let h = registry.histogram("batch");
        for v in [0, 1, 2, 3, 8, 9, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let snap = registry.snapshot();
        let hs = snap.histogram("batch").expect("recorded");
        assert_eq!(hs.count, 8);
        assert_eq!(
            hs.sum,
            0u64.wrapping_add(1 + 2 + 3 + 8 + 9 + (1 << 20))
                .wrapping_add(u64::MAX)
        );
        // 0 and 1 share the first bucket; 2 the second; 3 rounds to 4; 8 is
        // exact; 9 rounds to 16; 2^20 is exact; u64::MAX overflows.
        let bounds: Vec<u64> = hs.buckets.iter().map(|&(le, _)| le).collect();
        assert_eq!(bounds, vec![1, 2, 4, 8, 16, 1 << 20, u64::MAX]);
        assert_eq!(hs.buckets[0], (1, 2));
    }

    #[test]
    fn disabled_registry_is_inert() {
        let registry = Registry::default();
        assert!(!registry.is_enabled());
        let c = registry.counter("x");
        c.add(100);
        assert_eq!(c.get(), 0);
        registry.gauge("y").set(1.0);
        registry.histogram("z").record(1);
        assert!(registry.snapshot().is_empty());
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let registry = Registry::new();
        registry.counter("sends").add(3);
        registry.gauge("weird\"name\n").set(2.5);
        registry.histogram("h").record(7);
        let json = registry.snapshot().to_json();
        assert!(json.contains("\"sends\": 3"));
        assert!(json.contains("\\\"name\\n"), "name escaped: {json}");
        assert!(json.contains("\"count\": 1, \"sum\": 7"));
        // Cheap structural sanity: balanced braces/brackets, no raw control
        // chars outside the escapes.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        let pretty = registry.snapshot().pretty();
        assert!(pretty.contains("sends"));
    }

    #[test]
    fn events_record_and_serialize() {
        let sink = EventSink::new();
        sink.emit_at(
            2.5,
            "sim.heal",
            "reassign",
            &[("session", 0u64.into()), ("target", "p3".into())],
        );
        sink.emit("rt.download", "start", &[("ok", true.into())]);
        assert_eq!(sink.len(), 2);
        let events = sink.events();
        assert_eq!(events[0].ts, 2.5);
        assert_eq!(events[0].kind, "reassign");
        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"ts\": 2.5, \"component\": \"sim.heal\""));
        assert!(jsonl.contains("\"target\": \"p3\""));
        assert!(jsonl.contains("\"ok\": true"));
    }

    #[test]
    fn spans_emit_durations() {
        let sink = EventSink::new();
        {
            let _span = sink.span("rt.download", "download");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].component, "rt.download");
        let Some((_, Value::U64(dur))) = events[0].fields.first() else {
            panic!("span carries dur_us");
        };
        assert!(*dur >= 1_000, "measured at least the sleep: {dur}");
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = EventSink::default();
        sink.emit("a", "b", &[]);
        let _span = sink.span("a", "b");
        drop(_span);
        assert!(sink.is_empty());
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    fn percentiles_from_buckets() {
        let registry = Registry::new();
        let h = registry.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = registry.snapshot();
        let hs = snap.histogram("lat").unwrap();
        // Bucketing is power-of-two, so percentiles are coarse: p50 of
        // 1..=100 must land inside (32, 64], p99 inside (64, 128].
        let p50 = hs.percentile(0.50);
        assert!((32.0..=64.0).contains(&p50), "p50 {p50}");
        let p99 = hs.percentile(0.99);
        assert!((64.0..=128.0).contains(&p99), "p99 {p99}");
        assert!(hs.percentile(0.0) <= hs.percentile(1.0));
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0.0);
        // Overflow-bucket observations report the last finite bound.
        let o = registry.histogram("of");
        o.record(u64::MAX);
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("of").unwrap().percentile(0.99), 0.0);
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let sink = EventSink::with_capacity(4);
        for i in 0..10u64 {
            sink.emit_at(i as f64, "c", "k", &[("i", i.into())]);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.total_emitted(), 10);
        assert_eq!(sink.dropped_events(), 6);
        let events = sink.events();
        assert_eq!(events[0].ts, 6.0, "oldest retained is #6");
    }

    #[test]
    fn spans_nest_and_closed_spans_carry_ids() {
        let sink = EventSink::new();
        let root_id;
        {
            let root = sink.span("rt.download", "download");
            root_id = root.id();
            assert!(root_id > 0);
            let _child = root.child("chunk");
        }
        let id = sink.emit_span_at(9.0, 2.0, 5.0, "sim.trace", "request", Some(root_id), &[]);
        assert!(id > root_id);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        // Child dropped first; it links back to the root.
        let child = &events[0];
        let find = |e: &Event, name: &str| {
            e.fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(find(child, "parent"), Some(Value::U64(root_id)));
        let closed = &events[2];
        assert_eq!(closed.ts, 9.0, "stamped at emission time");
        assert_eq!(find(closed, "start"), Some(Value::F64(2.0)));
        assert_eq!(find(closed, "dur_us"), Some(Value::U64(3_000_000)));
        assert_eq!(find(closed, "parent"), Some(Value::U64(root_id)));
        assert_eq!(
            sink.emit_span_at(0.0, 0.0, 0.0, "c", "k", None, &[]),
            id + 1
        );
        assert_eq!(
            EventSink::default().emit_span_at(0.0, 0.0, 1.0, "c", "k", None, &[]),
            0
        );
    }

    #[test]
    fn clones_share_state() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.counter("n").inc();
        assert_eq!(registry.snapshot().counter("n"), Some(1));
        let sink = EventSink::new();
        sink.clone().emit_at(0.0, "c", "k", &[]);
        assert_eq!(sink.len(), 1);
    }
}
