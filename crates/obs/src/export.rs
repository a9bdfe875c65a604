//! Export surfaces: Prometheus text-format rendering of a [`Snapshot`].
//!
//! Dependency-free: the renderer emits the exposition format version 0.0.4
//! (`# TYPE` lines, cumulative `_bucket{le="..."}` series, `_sum`/`_count`)
//! that any Prometheus-compatible scraper ingests. Metric names are
//! sanitized (`sim.net.flows_lost` → `asymshare_sim_net_flows_lost`).

use crate::Snapshot;

/// Prefix for every exported metric name.
const METRIC_PREFIX: &str = "asymshare_";

/// `name` mangled into a legal Prometheus metric name.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + name.len());
    out.push_str(METRIC_PREFIX);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || (c == ':' && i > 0) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_value(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

/// Renders `snapshot` in the Prometheus text exposition format.
///
/// Histograms export cumulative `le` buckets plus `_sum` and `_count`, and
/// a `# HELP` line carrying the estimated p50/p95/p99 so a human reading a
/// raw scrape gets the tail at a glance.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} "));
        push_value(&mut out, *value);
        out.push('\n');
    }
    for (name, h) in &snapshot.histograms {
        let name = sanitize(name);
        out.push_str(&format!(
            "# HELP {name} p50={:.1} p95={:.1} p99={:.1}\n# TYPE {name} histogram\n",
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99)
        ));
        let mut cumulative = 0u64;
        for &(le, n) in &h.buckets {
            cumulative += n;
            if le == u64::MAX {
                continue; // folded into the +Inf bucket below
            }
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            h.count, h.sum, h.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn renders_all_metric_kinds() {
        let registry = Registry::new();
        registry.counter("sim.deliver.drops").add(3);
        registry.gauge("sim.store.p1.bytes").set(87.5);
        let h = registry.histogram("rt.transport.batch_frames");
        for v in [1u64, 2, 8, 8, 300] {
            h.record(v);
        }
        let text = render_prometheus(&registry.snapshot());
        assert!(text.contains("# TYPE asymshare_sim_deliver_drops counter\n"));
        assert!(text.contains("asymshare_sim_deliver_drops 3\n"));
        assert!(text.contains("asymshare_sim_store_p1_bytes 87.5\n"));
        assert!(text.contains("# TYPE asymshare_rt_transport_batch_frames histogram\n"));
        // Cumulative buckets: 1 → 1, 2 → 2, 8 → 4, 512 → 5, +Inf → 5.
        assert!(text.contains("asymshare_rt_transport_batch_frames_bucket{le=\"8\"} 4\n"));
        assert!(text.contains("asymshare_rt_transport_batch_frames_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("asymshare_rt_transport_batch_frames_count 5\n"));
        assert!(text.contains("asymshare_rt_transport_batch_frames_sum 319\n"));
        assert!(text.contains("# HELP asymshare_rt_transport_batch_frames p50="));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn overflow_bucket_folds_into_inf() {
        let registry = Registry::new();
        let h = registry.histogram("x");
        h.record(u64::MAX);
        h.record(1);
        let text = render_prometheus(&registry.snapshot());
        assert!(text.contains("asymshare_x_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("asymshare_x_bucket{le=\"+Inf\"} 2\n"));
        assert!(!text.contains("18446744073709551615"), "{text}");
    }
}
