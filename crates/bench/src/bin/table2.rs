//! Table II: decoding (= encoding) time in seconds for 1 MB of data, for
//! every (field size q, message length m) combination — measured on this
//! machine with this crate's codec.
//!
//! Absolute numbers differ from the paper's (2006 Pentium 4 + NTL/GMP vs.
//! this CPU + our kernels); the *shape* is what the paper argues from and
//! what must hold: decode time grows with k (smaller m) and shrinks with
//! larger fields, so GF(2³²) with large m is the fast corner. Each cell is
//! the fastest of several passes over the whole grid (five, or three with
//! `--quick`): the shape is checked on 1–2 ms cells, which interference
//! from the rest of the machine can slow down but never speed up.

use asymshare_bench::print_grid_table;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{Field, FieldKind, Gf16, Gf256, Gf2p32, Gf65536};
use asymshare_rlnc::{BlockDecoder, CodingParams, Encoder, FileId, MEGABYTE};
use std::time::Instant;

/// The paper's Table II (seconds, NTL/GMP on a 2006 Pentium 4), for the
/// side-by-side comparison printout.
const PAPER: [(FieldKind, [f64; 6]); 4] = [
    (FieldKind::Gf16, [117.28, 58.8, 30.05, 14.99, 7.57, 3.9]),
    (FieldKind::Gf256, [34.78, 17.52, 8.85, 4.46, 2.29, 1.18]),
    (FieldKind::Gf65536, [10.97, 5.53, 2.81, 1.42, 0.72, 0.4]),
    (FieldKind::Gf2p32, [3.9, 1.96, 1.0, 0.51, 0.26, 0.15]),
];

/// Seconds to encode, then to decode, 1 MB once.
fn measure_cell<F: Field>(m: usize) -> (f64, f64) {
    let params = CodingParams::for_1mb(F::KIND, m).expect("valid Table II cell");
    let k = params.k();
    let data: Vec<u8> = (0..MEGABYTE).map(|i| (i * 131 % 251) as u8).collect();
    let secret = SecretKey::from_passphrase("table2");
    let encoder = Encoder::<F>::new(params, secret.clone(), FileId(1), &data).expect("encoder");

    let t0 = Instant::now();
    let batch = encoder.encode_batch(0, k).expect("batch");
    let encode_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut dec = BlockDecoder::<F>::new(params, secret, FileId(1), data.len());
    for msg in batch {
        dec.add_message(msg).expect("accept");
    }
    let out = dec.decode().expect("decode");
    let decode_secs = t0.elapsed().as_secs_f64();
    assert_eq!(out.len(), data.len());
    (encode_secs, decode_secs)
}

fn measure(field: FieldKind, m: usize) -> (f64, f64) {
    match field {
        FieldKind::Gf16 => measure_cell::<Gf16>(m),
        FieldKind::Gf256 => measure_cell::<Gf256>(m),
        FieldKind::Gf65536 => measure_cell::<Gf65536>(m),
        FieldKind::Gf2p32 => measure_cell::<Gf2p32>(m),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let passes = if quick { 3 } else { 5 };
    println!("measuring 1 MB encode/decode across the Table II grid (fastest of {passes} passes per cell)...\n");

    // (encode, decode) seconds per cell, the fastest pass's.
    let mut fastest = [[(f64::INFINITY, f64::INFINITY); 6]; PAPER.len()];
    for _ in 0..passes {
        for (row, (field, _)) in fastest.iter_mut().zip(PAPER) {
            for (col, cell) in row.iter_mut().enumerate() {
                let (enc, dec) = measure(field, 1 << (13 + col));
                *cell = (cell.0.min(enc), cell.1.min(dec));
            }
        }
    }
    let mut decode_rows = Vec::new();
    let mut encode_rows = Vec::new();
    let mut measured = Vec::new();
    for (row, (field, _)) in fastest.iter().zip(PAPER) {
        let secs = |v: f64| format!("{v:.3}");
        encode_rows.push((field.to_string(), row.iter().map(|c| secs(c.0)).collect()));
        decode_rows.push((field.to_string(), row.iter().map(|c| secs(c.1)).collect()));
        measured.push((field, row.map(|c| c.1)));
    }

    print_grid_table("Table II (measured): decode seconds for 1MB", &decode_rows);
    println!();
    print_grid_table("Table II companion: encode seconds for 1MB", &encode_rows);

    println!("\n== paper's reference values (NTL/GMP, 2006 Pentium 4):");
    let paper_rows: Vec<(String, Vec<String>)> = PAPER
        .iter()
        .map(|(f, row)| {
            (
                f.to_string(),
                row.iter().map(|v| format!("{v:.2}")).collect(),
            )
        })
        .collect();
    print_grid_table("Table II (paper)", &paper_rows);

    // Shape checks the paper argues from.
    println!("\n== shape checks:");
    let mut ok = true;
    for (field, row) in &measured {
        // Within a row, larger m (smaller k) must be monotonically faster.
        let monotone = row.windows(2).all(|w| w[1] <= w[0] * 1.25);
        println!(
            "   {field}: decode time falls as m grows (k shrinks): {}",
            if monotone { "yes" } else { "NO" }
        );
        ok &= monotone;
    }
    // Down a column, larger fields must win despite costlier symbol ops.
    let col_fast = (0..6).all(|c| measured[3].1[c] <= measured[0].1[c]);
    println!(
        "   GF(2^32) beats GF(2^4) in every column: {}",
        if col_fast { "yes" } else { "NO" }
    );
    ok &= col_fast;
    let headline = measured[3].1[2];
    println!(
        "   paper's recommended cell (q=2^32, m=2^15, k=8): {headline:.3}s per MB \
         (paper: 1.0s on 2006 hardware => real-time 1MB/s streaming feasible)"
    );
    if !ok {
        std::process::exit(1);
    }
}
