//! Committed codec baseline: encode/decode throughput at the repository's
//! reference operating point — GF(2⁸), k = 32, 1 MB chunks — written to
//! `BENCH_rlnc.json` so kernel regressions show up as a diff against the
//! checked-in numbers.
//!
//! The measurement is a median of several timed samples, eight chunks each,
//! of the same work the chunked pipeline does per chunk: one full
//! rank-checked batch encode (`k` messages = 1 MB of coded payload) and one
//! full block decode (admission + matrix inversion + payload
//! reconstruction). Run with `--quick` for a single sample per side, and
//! from the repository root so the JSON lands next to the manifest:
//!
//! ```text
//! cargo run --release -p asymshare-bench --bin bench_baseline
//! ```

use asymshare::{Identity, ParticipantId, RuntimeConfig, SimRuntime};
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::Gf256;
use asymshare_netsim::LinkSpeed;
use asymshare_rlnc::{BlockDecoder, CodingParams, Encoder, FileId, MEGABYTE};
use std::time::Instant;

/// Symbols per message: 2^15 bytes, so k = 1 MB / m = 32 at GF(2⁸).
const M: usize = 1 << 15;

/// Chunks encoded (and decoded) per timed sample.
const REPS: usize = 8;

/// Where the baseline lands (relative to the working directory, which the
/// doc comment asks to be the repository root).
const OUT_PATH: &str = "BENCH_rlnc.json";

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Jain's fairness index: 1.0 when all shares are equal, 1/n when one
/// party takes everything.
fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sq)
}

/// Fairness columns: a small seeded slotted-simulator download with the
/// observability layer on. Everything here is deterministic, so re-runs
/// never churn the committed JSON.
fn fairness_section() -> String {
    const FAIR_PEERS: usize = 3;
    const FAIR_BYTES: usize = 64 * 1024;
    let mut rt = SimRuntime::new(RuntimeConfig {
        k: 4,
        chunk_size: 16 * 1024,
        ..RuntimeConfig::default()
    });
    rt.enable_observability();
    let ids: Vec<ParticipantId> = (0..FAIR_PEERS as u8)
        .map(|i| {
            rt.add_participant(
                Identity::from_seed(&[b'f', i]),
                LinkSpeed::kbps(512.0),
                LinkSpeed::kbps(3000.0),
            )
        })
        .collect();
    let payload: Vec<u8> = (0..FAIR_BYTES).map(|i| (i * 31 % 251) as u8).collect();
    let (manifest, _) = rt
        .disseminate(ids[0], FileId(9), &payload, &ids)
        .expect("disseminate");
    let session = rt
        .start_download(
            ids[0],
            manifest,
            LinkSpeed::kbps(512.0),
            LinkSpeed::kbps(3000.0),
            &ids,
        )
        .expect("session");
    let report = rt.run_to_completion(session, 600).expect("download");
    // Flush the final feedback round so Eq.-2 credit reflects served bytes.
    rt.run_slots(rt.config().feedback_every_slots + 2);

    let bytes: Vec<f64> = report.per_peer_bytes.values().map(|&b| b as f64).collect();
    let jain_bytes = jain_index(&bytes);
    let matrix = rt.credit_matrix();
    // The home peer's ledger row for the other participants' keys.
    let credits: Vec<f64> = (1..FAIR_PEERS).map(|j| matrix[0][j]).collect();
    let credit_min = credits.iter().cloned().fold(f64::INFINITY, f64::min);
    let credit_max = credits.iter().cloned().fold(0.0, f64::max);
    let slot_shares = rt
        .event_log()
        .iter()
        .filter(|e| e.component == "sim.alloc")
        .count();
    println!(
        "  fairness: jain(bytes) {jain_bytes:.3} over {} peers, home credit [{credit_min:.0}, {credit_max:.0}]",
        bytes.len()
    );
    format!(
        "  \"fairness\": {{\n    \"peers\": {FAIR_PEERS},\n    \"payload_bytes\": {FAIR_BYTES},\n    \"contributors\": {},\n    \"jain_index_bytes\": {jain_bytes:.3},\n    \"home_credit_min\": {credit_min:.0},\n    \"home_credit_max\": {credit_max:.0},\n    \"slot_share_events\": {slot_shares}\n  }}",
        bytes.len()
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 1 } else { 5 };

    let params = CodingParams::for_1mb(asymshare_gf::FieldKind::Gf256, M).expect("baseline cell");
    let k = params.k();
    assert_eq!(k, 32, "baseline is defined at k = 32");
    let data: Vec<u8> = (0..MEGABYTE).map(|i| (i * 131 % 251) as u8).collect();
    let secret = SecretKey::from_passphrase("bench_baseline");
    let encoder = Encoder::<Gf256>::new(params, secret.clone(), FileId(1), &data).expect("encoder");

    println!("measuring GF(2^8) k={k} m={M} on a 1 MB chunk ({samples} sample(s) per side)...");

    // A chunk takes ~2 ms a side, so one sample is REPS chunks: a single
    // one would make a `--quick` reading mostly first-touch page faults and
    // timer noise, and the 30 % smoke gate a coin toss.
    let mut encode_secs = Vec::with_capacity(samples);
    let mut batch = Vec::new();
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..REPS {
            batch = encoder.encode_batch(0, k).expect("batch");
        }
        encode_secs.push(t0.elapsed().as_secs_f64() / REPS as f64);
    }

    let mut decode_secs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let inputs: Vec<_> = (0..REPS).map(|_| batch.clone()).collect();
        let mut out = Vec::new();
        let t0 = Instant::now();
        for msgs in inputs {
            let mut dec = BlockDecoder::<Gf256>::new(params, secret.clone(), FileId(1), data.len());
            for msg in msgs {
                dec.add_message(msg).expect("accept");
            }
            out = dec.decode().expect("decode");
        }
        decode_secs.push(t0.elapsed().as_secs_f64() / REPS as f64);
        assert_eq!(out, data, "decode must reconstruct the chunk");
    }

    let mb = MEGABYTE as f64 / 1e6;
    let encode_mbps = mb / median(encode_secs);
    let decode_mbps = mb / median(decode_secs);
    println!("  encode: {encode_mbps:.1} MB/s");
    println!("  decode: {decode_mbps:.1} MB/s");

    let fairness = fairness_section();

    // Hand-rolled JSON: two significant decimals are plenty for a baseline,
    // and the rounding keeps re-runs from churning the committed file on
    // every timing wobble.
    let json = format!(
        "{{\n  \"config\": {{\n    \"field\": \"GF(2^8)\",\n    \"k\": {k},\n    \"m\": {M},\n    \"chunk_bytes\": {MEGABYTE},\n    \"samples\": {samples},\n    \"statistic\": \"median\"\n  }},\n  \"encode_mb_per_s\": {encode_mbps:.1},\n  \"decode_mb_per_s\": {decode_mbps:.1},\n{fairness}\n}}\n"
    );
    std::fs::write(OUT_PATH, json).expect("write baseline json");
    println!("wrote {OUT_PATH}");
}
