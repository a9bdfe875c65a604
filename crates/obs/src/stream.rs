//! Span-based trace timelines over the event log.
//!
//! A [`TraceTree`] reassembles span events (emitted by [`Span`] guards or
//! [`EventSink::emit_span_at`]) into a nested per-transfer timeline and
//! renders it as a text waterfall.
//!
//! [`Span`]: crate::Span
//! [`EventSink::emit_span_at`]: crate::EventSink::emit_span_at

use crate::{Event, Value};
use std::collections::HashMap;

/// One node of a [`TraceTree`]: a closed span with its children.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// Span id.
    pub span: u64,
    /// Parent span id, if nested.
    pub parent: Option<u64>,
    /// Emitting component.
    pub component: &'static str,
    /// Span kind (`"download"`, `"chunk"`, `"request"`, ...).
    pub kind: &'static str,
    /// Start on the emitter's timeline, seconds.
    pub start: f64,
    /// Duration in seconds.
    pub dur_secs: f64,
    /// `key=value` rendering of the span's non-structural fields.
    pub label: String,
    /// Indices into the tree's node table, sorted by start time.
    pub children: Vec<usize>,
}

/// A forest of nested spans reassembled from an event log.
#[derive(Debug, Clone, Default)]
pub struct TraceTree {
    nodes: Vec<TraceNode>,
    roots: Vec<usize>,
}

fn field_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

impl TraceTree {
    /// Builds the forest from every event in `events` carrying a `span`
    /// field. Orphans (parent never seen) become roots.
    pub fn build(events: &[Event]) -> TraceTree {
        let mut nodes = Vec::new();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for event in events {
            let mut span = None;
            let mut parent = None;
            let mut start = event.ts;
            let mut dur_secs = 0.0;
            let mut label = String::new();
            for (name, value) in &event.fields {
                match *name {
                    "span" => span = field_f64(value).map(|v| v as u64),
                    "parent" => parent = field_f64(value).map(|v| v as u64),
                    "start" => start = field_f64(value).unwrap_or(event.ts),
                    "dur_us" => dur_secs = field_f64(value).unwrap_or(0.0) / 1e6,
                    _ => {
                        if !label.is_empty() {
                            label.push(' ');
                        }
                        label.push_str(name);
                        label.push('=');
                        match value {
                            Value::Str(s) => label.push_str(s),
                            Value::Bool(b) => label.push_str(if *b { "true" } else { "false" }),
                            Value::U64(v) => label.push_str(&v.to_string()),
                            Value::I64(v) => label.push_str(&v.to_string()),
                            Value::F64(v) => label.push_str(&format!("{v:.1}")),
                        }
                    }
                }
            }
            let Some(span) = span else { continue };
            let idx = nodes.len();
            nodes.push(TraceNode {
                span,
                parent,
                component: event.component,
                kind: event.kind,
                start,
                dur_secs,
                label,
                children: Vec::new(),
            });
            by_id.insert(span, idx);
        }
        let mut roots = Vec::new();
        for idx in 0..nodes.len() {
            match nodes[idx].parent.and_then(|p| by_id.get(&p).copied()) {
                Some(parent_idx) if parent_idx != idx => nodes[parent_idx].children.push(idx),
                _ => roots.push(idx),
            }
        }
        let by_start = |a: &usize, b: &usize, nodes: &[TraceNode]| {
            nodes[*a]
                .start
                .partial_cmp(&nodes[*b].start)
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        roots.sort_by(|a, b| by_start(a, b, &nodes));
        let order: Vec<Vec<usize>> = nodes
            .iter()
            .map(|n| {
                let mut c = n.children.clone();
                c.sort_by(|a, b| by_start(a, b, &nodes));
                c
            })
            .collect();
        for (node, children) in nodes.iter_mut().zip(order) {
            node.children = children;
        }
        TraceTree { nodes, roots }
    }

    /// The reassembled nodes (tree order not guaranteed; follow
    /// [`roots`](TraceTree::roots) and `children` for structure).
    pub fn nodes(&self) -> &[TraceNode] {
        &self.nodes
    }

    /// Indices of the root spans, by start time.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Whether no spans were found.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Renders a waterfall: one line per span, indented by depth, with a
    /// bar positioned on the overall `[t0, t1]` timeline scaled to
    /// `width` columns.
    pub fn render(&self, width: usize) -> String {
        if self.nodes.is_empty() {
            return String::from("(no spans recorded)\n");
        }
        let t0 = self
            .nodes
            .iter()
            .map(|n| n.start)
            .fold(f64::INFINITY, f64::min);
        let t1 = self
            .nodes
            .iter()
            .map(|n| n.start + n.dur_secs)
            .fold(f64::NEG_INFINITY, f64::max);
        let range = (t1 - t0).max(1e-9);
        let width = width.clamp(16, 400);
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} span(s) over {:.3}s\n",
            self.nodes.len(),
            t1 - t0
        ));
        for &root in &self.roots {
            self.render_node(root, 0, t0, range, width, &mut out);
        }
        out
    }

    fn render_node(
        &self,
        idx: usize,
        depth: usize,
        t0: f64,
        range: f64,
        width: usize,
        out: &mut String,
    ) {
        let n = &self.nodes[idx];
        let mut name = format!("{}{}", "  ".repeat(depth), n.kind);
        if !n.label.is_empty() {
            name.push(' ');
            name.push_str(&n.label);
        }
        let offset = (((n.start - t0) / range) * width as f64).floor() as usize;
        let mut bar_len = ((n.dur_secs / range) * width as f64).ceil() as usize;
        bar_len = bar_len.clamp(1, width.saturating_sub(offset).max(1));
        let bar = format!("{}{}", " ".repeat(offset.min(width)), "#".repeat(bar_len));
        out.push_str(&format!(
            "{name:<40} {:>9.3}s {:>9.1}ms |{bar:<w$}|\n",
            n.start - t0,
            n.dur_secs * 1e3,
            w = width + 1
        ));
        for &child in &n.children {
            self.render_node(child, depth + 1, t0, range, width, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventSink;

    #[test]
    fn trace_tree_nests_and_renders() {
        let sink = EventSink::new();
        let root = sink.emit_span_at(
            10.0,
            0.0,
            10.0,
            "sim.trace",
            "download",
            None,
            &[("session", 0u64.into())],
        );
        sink.emit_span_at(
            10.0,
            0.5,
            4.0,
            "sim.trace",
            "chunk",
            Some(root),
            &[("chunk", 1u64.into())],
        );
        sink.emit_span_at(
            10.0,
            4.0,
            9.5,
            "sim.trace",
            "chunk",
            Some(root),
            &[("chunk", 2u64.into())],
        );
        sink.emit_at(10.0, "sim.heal", "retry", &[("conn", 1u64.into())]);
        let tree = TraceTree::build(&sink.events());
        assert_eq!(tree.nodes().len(), 3, "non-span events ignored");
        assert_eq!(tree.roots().len(), 1);
        let root_node = &tree.nodes()[tree.roots()[0]];
        assert_eq!(root_node.kind, "download");
        assert_eq!(root_node.children.len(), 2);
        let first = &tree.nodes()[root_node.children[0]];
        assert_eq!(first.label, "chunk=1");
        assert!((first.dur_secs - 3.5).abs() < 1e-6);
        let text = tree.render(60);
        assert!(text.contains("download"), "{text}");
        assert!(text.lines().count() == 4, "{text}");
        assert!(text.contains("  chunk chunk=1"), "indented child: {text}");
        assert_eq!(TraceTree::build(&[]).render(60), "(no spans recorded)\n");
    }
}
