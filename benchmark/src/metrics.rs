//! The metric vocabulary: every name the benchmark prints, with its unit,
//! direction, bound (end-to-end only) and — written down before measuring —
//! the end-to-end metric it should move and on which workload.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// One metric's definition.
#[derive(Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// What the number means and what it should move.
    pub note: &'static str,
}

impl Def {
    /// The direction as `BENCHMARK.json` spells it.
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    note: &'static str,
) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    note: &'static str,
) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        bound: None,
        note,
    }
}

/// What a user of the system sees; every workload reports all five.
#[rustfmt::skip] // one metric per row
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", false, 0.25,
        "generate data, publish, host peers: median of the set-ups one run makes"),
    e2e("goodput_mbps", "MB/s", true, 0.25,
        "verified plaintext bytes of successful measured ops / wall of the measured window (1e6 B)"),
    e2e("op_p50_ms", "ms", false, 0.25,
        "median op time: fetch = download_file_with call -> bytes equal to the original; publish = encoder construction -> last store insert"),
    e2e("cpu_ms_per_mib", "ms/MiB", false, 0.25,
        "process utime+stime over the window (all threads) / MiB of verified plaintext delivered to all clients"),
    e2e("peak_rss_mib", "MiB", false, 0.20,
        "VmHWM when the window has closed"),
];

/// Single layers, from the traced run. `->` names the end-to-end metric
/// the number should move, and where.
#[rustfmt::skip] // one metric per row
pub const PER_LAYER: [Def; 52] = [
    // gf
    layer("gf.axpy_mbps", "MB/s", true,
        "probe Gf2p32::axpy_slice over 128 KiB slabs, the roofline -> goodput_mbps on bulk, publish; nothing on shaped"),
    // crypto
    layer("crypto.md5_mbps", "MB/s", true,
        "probe MessageDigest::compute over received messages -> goodput_mbps on bulk, publish"),
    layer("crypto.handshake_us", "us", false,
        "probe Prover::start -> Verifier::on_commit -> on_challenge -> on_response + ack sign and verify -> op_p50_ms on sessions"),
    layer("crypto.coeff_row_ns", "ns", false,
        "probe RowGenerator::row_into (k = 8) -> goodput_mbps on small_msgs, publish"),
    // rlnc
    layer("rlnc.encoder_new_ms", "ms", false,
        "ChunkedEncoder::with_chunk_size of the workload's file -> op_p50_ms on publish, setup_s everywhere"),
    layer("rlnc.encode_mbps", "MB/s", true,
        "coded MB out of encode_for_peers(4) per second -> op_p50_ms on publish, setup_s everywhere"),
    layer("rlnc.verify_ms_per_op", "ms", false,
        "probe AuthManifest::verify over one op's received messages, redundant ones included -> goodput_mbps on bulk, small_msgs"),
    layer("rlnc.add_message_ns", "ns", false,
        "probe BlockDecoder::add_message (row + rank + symbol copy) per received message -> goodput_mbps on bulk, small_msgs"),
    layer("rlnc.decode_mbps", "MB/s", true,
        "probe BlockDecoder::decode chunk by chunk on one thread, plaintext MB/s -> goodput_mbps on bulk"),
    layer("rlnc.decode_share", "ratio", false,
        "decode time / op time (rlnc.decode span where the fetch is staged, else the probe's time over the op median) -> goodput_mbps on bulk"),
    layer("rlnc.decode_vs_roofline", "ratio", true,
        "rlnc.decode_mbps / (gf.axpy_mbps / k): 1.0 means decode runs at the kernel's speed"),
    layer("rlnc.manifest_bytes_per_mib", "B/MiB", false,
        "FileManifest::to_bytes length per MiB of plaintext (exact count) -> what a user carries"),
    // core
    layer("core.user.on_message_share", "ratio", false,
        "core.user.on_message self time / staged op -> cpu_ms_per_mib on bulk, small_msgs"),
    layer("core.user.connect_us", "us", false,
        "probe User::connect (fresh prover + commitment) -> op_p50_ms on sessions"),
    layer("core.user.redundant_per_innovative", "ratio", false,
        "redundant / innovative messages at the user -> cpu_ms_per_mib on bulk, goodput_mbps on shaped (redundant frames burn uplink)"),
    layer("core.wire.encode_ns_per_frame", "ns", false,
        "probe Wire::encode_into of a MessageData frame -> goodput_mbps on small_msgs"),
    layer("core.wire.decode_ns_per_frame", "ns", false,
        "probe Wire::decode_shared of a MessageData frame -> goodput_mbps on small_msgs"),
    layer("core.peer.next_message_ns", "ns", false,
        "probe Peer::next_message over one full sweep -> goodput_mbps on small_msgs"),
    layer("core.store.insert_ns", "ns", false,
        "probe MessageStore::insert of one peer's batch -> op_p50_ms on publish"),
    // rt
    layer("rt.recv_wait_share", "ratio", false,
        "client blocked in Inbox::recv_timeout / staged op: low on bulk = the client thread is the blocking step and codec savings convert ~1:1"),
    layer("rt.reactor.pass_busy_share", "ratio", false,
        "sum of rt.reactor.pass_us / window -> goodput_mbps on small_msgs, cpu_ms_per_mib on shaped"),
    layer("rt.reactor.frames_per_pass", "count", true,
        "served frames / serve passes -> goodput_mbps on small_msgs"),
    layer("rt.reactor.coalesce_mean_frames", "count", true,
        "mean frames per datagram -> goodput_mbps on small_msgs"),
    layer("rt.reactor.queue_depth_p95", "count", false,
        "p95 of frames staged per connection per pass"),
    layer("rt.reactor.backpressure_yields_per_op", "1/op", false,
        "serve passes a full window skipped, per op -> goodput_mbps on small_msgs"),
    layer("rt.transport.frame_ns", "ns", false,
        "probe send_frames x8 -> try_recv -> decode_all -> recycle_envelope, per frame -> goodput_mbps on small_msgs"),
    layer("rt.transport.allocs_per_frame", "count", false,
        "allocator calls per frame on that probe"),
    layer("rt.pool.hit_rate", "ratio", true,
        "buffer-pool hits / acquires over the window -> goodput_mbps on small_msgs"),
    layer("rt.limiter.uplink_efficiency", "ratio", true,
        "(measured + background plaintext) / (sum of peer rates x wall) on shaped, 0 elsewhere -> goodput_mbps on shaped"),
    layer("rt.reactor.share_error", "ratio", false,
        "|measured user's byte share while both fetch - 0.75| on shaped, 0 elsewhere -> goodput_mbps on shaped"),
    layer("rt.window.narrows_per_op", "1/op", false,
        "AIMD multiplicative decreases per op -> goodput_mbps, op_p50_ms on lossy"),
    layer("rt.transport.drops_per_op", "1/op", false,
        "datagrams the fault plan dropped per op (lossy)"),
    layer("rt.transport.corrupted_per_op", "1/op", false,
        "datagrams the fault plan corrupted per op (lossy)"),
    layer("rt.heal.retries_per_op", "1/op", false,
        "stalled-peer recoveries per op; expected 0 on clean workloads"),
    layer("rt.heal.replacements_per_op", "1/op", false,
        "replacement requests per op; expected 0 on clean workloads"),
    layer("rt.heal.reassignments_per_op", "1/op", false,
        "dead-peer re-plans per op; expected 0 on clean workloads"),
    layer("rt.heal.digest_rejects_per_op", "1/op", false,
        "digest-rejected messages per op; expected 0 on clean workloads"),
    layer("rt.heal.backoff_wait_share", "ratio", false,
        "time slept honouring retry backoff / op time; expected 0 on clean workloads"),
    // par
    layer("par.threads", "count", true,
        "asymshare_par::max_threads() with ASYMSHARE_THREADS unset"),
    layer("par.decode_speedup", "ratio", true,
        "probe ChunkedDecoder::decode under ASYMSHARE_THREADS=1 / default -> goodput_mbps on bulk"),
    layer("par.encode_speedup", "ratio", true,
        "probe encoder construction + encode_for_peers under ASYMSHARE_THREADS=1 / default -> op_p50_ms on publish"),
    // alloc
    layer("alloc.allocate_into_ns_n2", "ns", false,
        "probe rules::allocate_into + AllocScratch, 2 users; moves nothing today (no download path calls this crate)"),
    layer("alloc.allocate_into_ns_n64", "ns", false,
        "the same with 64 users; the before-number for routing the serve pass through it"),
    // obs
    layer("obs.traced_op_p50_ms", "ms", false,
        "op_p50_ms of the product's fetch with observability on; against the untraced run it gives obs.trace_overhead_pct"),
    layer("obs.events_per_op", "1/op", false,
        "events emitted into the sink per op (product events + benchmark spans)"),
    layer("obs.dropped_events", "count", false,
        "events evicted from the sink; must be 0 for the trace to be whole"),
    // client (the harness)
    layer("client.op_tail_ms", "ms", false,
        "highest of p75/p90/p95/p99 with >= 10 samples beyond it (the maximum below 40 samples); reported, not gated"),
    layer("client.op_tail_pct", "%", true,
        "which percentile client.op_tail_ms is (100 = the maximum)"),
    layer("client.samples", "count", true,
        "ops behind client.op_tail_ms"),
    layer("client.unattributed_share", "ratio", false,
        "op time no child span covers; keep < 0.05"),
    layer("client.staged_vs_product_pct", "%", false,
        "staged fetch median vs download_file_with median, both traced; flagged above 10; 0 where the fetch is not staged"),
    layer("client.background_mbps", "MB/s", true,
        "plaintext the background user of shaped received inside the window; 0 elsewhere"),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::world::SPECS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} defined twice", def.name);
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(find("setup_s").is_some_and(|d| d.unit == "s" && !d.higher_is_better));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("better").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let expected = |defs: &[Def]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_owned(),
                        d.unit.to_owned(),
                        d.better().to_owned(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expected(&END_TO_END));
        assert_eq!(listed("per_layer"), expected(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let specs: Vec<(&str, &str)> = SPECS.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(workloads, specs);
    }
}
