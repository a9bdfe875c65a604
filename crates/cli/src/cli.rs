//! Argument parsing and command implementations.

use crate::bundle;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_rlnc::{ChunkedDecoder, ChunkedEncoder, DigestKind, FileId, FileManifest};
use std::fs;
use std::path::Path;

/// Usage text shown on errors.
pub const USAGE: &str = "usage:
  asymshare keygen  <keyfile>
  asymshare encode  --key <keyfile> --input <file> [--peers N] [--k K] [--file-id ID] [--out DIR]
  asymshare decode  --key <keyfile> --manifest <path> --output <file> <bundle>...
  asymshare inspect --manifest <path>
  asymshare metrics [--peers N] [--size BYTES] [--json] [--events FILE]
  asymshare trace   [--peers N] [--size BYTES] [--width COLS] [--faults]
  asymshare top     [--peers N] [--size BYTES] [--listen ADDR] [--once]";

/// Entry point; returns a user-facing error string on failure.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("keygen") => keygen(&args[1..]),
        Some("encode") => encode(&args[1..]),
        Some("decode") => decode(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("metrics") => metrics(&args[1..]).map(|out| print!("{out}")),
        Some("trace") => trace(&args[1..]),
        Some("top") => top(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("no command given".to_owned()),
    }
}

/// Fetches the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Positional arguments: everything not a flag or a flag's value.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
        } else {
            out.push(a.as_str());
        }
    }
    out
}

fn load_key(path: &str) -> Result<SecretKey, String> {
    let hex = fs::read_to_string(path).map_err(|e| format!("reading key file {path}: {e}"))?;
    let hex = hex.trim();
    if hex.len() != 64 {
        return Err(format!(
            "key file must hold 64 hex chars, found {}",
            hex.len()
        ));
    }
    let mut bytes = [0u8; 32];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16)
            .map_err(|e| format!("bad hex in key file: {e}"))?;
    }
    Ok(SecretKey::from_bytes(bytes))
}

fn keygen(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("keygen needs an output path")?;
    if Path::new(path).exists() {
        return Err(format!(
            "{path} already exists; refusing to overwrite a key"
        ));
    }
    // OS entropy; /dev/urandom exists on every platform this tool targets.
    // The device is an infinite stream — read exactly 32 bytes.
    let raw = (|| -> std::io::Result<[u8; 32]> {
        use std::io::Read;
        let mut f = fs::File::open("/dev/urandom")?;
        let mut buf = [0u8; 32];
        f.read_exact(&mut buf)?;
        Ok(buf)
    })()
    .ok();
    let entropy: Vec<u8> = match raw {
        Some(v) => v.to_vec(),
        None => {
            // Fallback: hash the current time (documented as weaker).
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_err(|e| e.to_string())?;
            asymshare_crypto::sha256::Sha256::digest_parts(&[
                b"asymshare.keygen.fallback",
                &t.as_nanos().to_le_bytes(),
            ])
            .0
            .to_vec()
        }
    };
    let hex: String = entropy.iter().map(|b| format!("{b:02x}")).collect();
    fs::write(path, format!("{hex}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote secret key to {path} — keep it private; it is the file privacy");
    Ok(())
}

fn encode(args: &[String]) -> Result<(), String> {
    let key = load_key(flag_value(args, "--key").ok_or("--key is required")?)?;
    let input = flag_value(args, "--input").ok_or("--input is required")?;
    let peers: usize = flag_value(args, "--peers")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--peers must be a number")?;
    let k: usize = flag_value(args, "--k")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "--k must be a number")?;
    let file_id: u64 = flag_value(args, "--file-id")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--file-id must be a number")?;
    let out_dir = flag_value(args, "--out").unwrap_or("asymshare-out");
    if peers == 0 {
        return Err("--peers must be at least 1".to_owned());
    }

    let data = fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let mut enc = ChunkedEncoder::<Gf2p32>::new(
        FieldKind::Gf2p32,
        k,
        DigestKind::Md5,
        key,
        FileId(file_id),
        &data,
    )
    .map_err(|e| e.to_string())?;
    let batches = enc.encode_for_peers(peers).map_err(|e| e.to_string())?;

    fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    let mut total = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        let path = format!("{out_dir}/peer{i}.bundle");
        let bytes = bundle::write_bundle(batch);
        total += bytes.len();
        fs::write(&path, bytes).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let manifest_path = format!("{out_dir}/manifest.asym");
    fs::write(&manifest_path, enc.manifest().to_bytes())
        .map_err(|e| format!("writing {manifest_path}: {e}"))?;
    println!(
        "encoded {} bytes into {} bundles ({} coded bytes, {} chunks, k={k}) under {out_dir}/",
        data.len(),
        peers,
        total,
        enc.chunk_count(),
    );
    println!(
        "manifest: {manifest_path} ({} bytes — carry this with you)",
        enc.manifest().to_bytes().len()
    );
    Ok(())
}

fn decode(args: &[String]) -> Result<(), String> {
    let key = load_key(flag_value(args, "--key").ok_or("--key is required")?)?;
    let manifest_path = flag_value(args, "--manifest").ok_or("--manifest is required")?;
    let output = flag_value(args, "--output").ok_or("--output is required")?;
    let bundles = positionals(args);
    if bundles.is_empty() {
        return Err("at least one bundle file is required".to_owned());
    }

    let manifest_bytes =
        fs::read(manifest_path).map_err(|e| format!("reading {manifest_path}: {e}"))?;
    let manifest = FileManifest::from_bytes(&manifest_bytes).map_err(|e| e.to_string())?;
    let mut dec = ChunkedDecoder::<Gf2p32>::new(manifest, key).map_err(|e| e.to_string())?;

    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for path in &bundles {
        let buf = fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        for msg in bundle::read_bundle(&buf).map_err(|e| format!("{path}: {e}"))? {
            match dec.add_message(msg) {
                Ok(true) => accepted += 1,
                Ok(false) => {}
                Err(_) => rejected += 1,
            }
            if dec.is_complete() {
                break;
            }
        }
        if dec.is_complete() {
            break;
        }
    }
    if !dec.is_complete() {
        return Err(format!(
            "not enough independent messages: {:.0}% decoded ({} accepted, {} failed authentication)",
            dec.progress() * 100.0,
            accepted,
            rejected
        ));
    }
    let data = dec.decode().map_err(|e| e.to_string())?;
    fs::write(output, &data).map_err(|e| format!("writing {output}: {e}"))?;
    println!(
        "decoded {} bytes to {output} ({accepted} innovative messages{})",
        data.len(),
        if rejected > 0 {
            format!(", {rejected} rejected by digest authentication")
        } else {
            String::new()
        }
    );
    Ok(())
}

/// The seeded demonstration both `metrics` and `trace` run: `--peers`
/// cable-modem participants (identities seeded by `tag`) on the slotted
/// simulator with observability on, `--size` bytes disseminated to all of
/// them, and the owner's download run to completion. `faults` makes the
/// last peer's uplink lossy and corrupting once the file is disseminated.
fn sim_demo(
    args: &[String],
    tag: u8,
    faults: bool,
) -> Result<(asymshare::SimRuntime, asymshare::DownloadReport), String> {
    use asymshare::{Identity, ParticipantId, RuntimeConfig, SimRuntime};
    use asymshare_netsim::{FaultPlan, LinkFault, LinkSpeed};

    let peers: usize = flag_value(args, "--peers")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--peers must be a number")?;
    let size: usize = flag_value(args, "--size")
        .unwrap_or("131072")
        .parse()
        .map_err(|_| "--size must be a number of bytes")?;
    if !(2..=64).contains(&peers) {
        return Err("--peers must be between 2 and 64".to_owned());
    }
    if size == 0 || size > 16 << 20 {
        return Err("--size must be between 1 byte and 16 MiB".to_owned());
    }

    let mut rt = SimRuntime::new(RuntimeConfig {
        k: 4,
        chunk_size: 16 * 1024,
        ..RuntimeConfig::default()
    });
    rt.enable_observability();
    // The paper's reference access profile: cable-modem peers with 256 kbps
    // uplinks and 3 Mbps downlinks.
    let (up, down) = (LinkSpeed::kbps(256.0), LinkSpeed::kbps(3000.0));
    let ids: Vec<ParticipantId> = (0..peers as u8)
        .map(|i| rt.add_participant(Identity::from_seed(&[tag, i]), up, down))
        .collect();
    let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
    let (manifest, _) = rt
        .disseminate(ids[0], FileId(1), &payload, &ids)
        .map_err(|e| e.to_string())?;
    if faults {
        let node = rt.participant_node(ids[peers - 1]);
        rt.set_fault_plan(FaultPlan::new(7).with_node_fault(
            node,
            LinkFault {
                loss_prob: 0.15,
                corrupt_prob: 0.10,
                jitter_secs: 0.0,
            },
        ));
    }
    let session = rt
        .start_download(ids[0], manifest, up, down, &ids)
        .map_err(|e| e.to_string())?;
    let report = rt
        .run_to_completion(session, 3_600)
        .map_err(|e| e.to_string())?;
    Ok((rt, report))
}

/// Runs the seeded demonstration download and renders the resulting
/// metrics snapshot — the quickest way to see what the instrumentation
/// layer records. The text depends on the arguments alone.
fn metrics(args: &[String]) -> Result<String, String> {
    use std::fmt::Write;

    let (rt, report) = sim_demo(args, b'm', false)?;
    if let Some(path) = flag_value(args, "--events") {
        fs::write(path, rt.events_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if args.iter().any(|a| a == "--json") {
        return Ok(report.metrics.to_json() + "\n");
    }
    let credit = rt.credit_matrix();
    let mut out = format!(
        "seeded demo: {} peers, {} B payload, {:.2} s simulated, {:.0} kbps mean\n",
        credit.len(),
        report.data.len(),
        report.duration_secs,
        report.mean_rate_kbps
    );
    out += &report.metrics.pretty();
    out += "Eq.-2 credit (row: serving peer, column: user key):\n";
    for (i, row) in credit.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|c| format!("{c:>10.0}")).collect();
        let _ = writeln!(out, "  p{i:<3}{}", cells.join(""));
    }
    Ok(out)
}

/// Runs the seeded demonstration download and renders the resulting span
/// timeline as a text waterfall, followed by the per-peer health scores
/// folded from the same log. `--faults` makes one serving peer lossy and
/// corrupting so the replacement/heal spans and alerts have something to
/// show.
fn trace(args: &[String]) -> Result<(), String> {
    use asymshare_obs::health::replay;
    use asymshare_obs::stream::TraceTree;

    let width: usize = flag_value(args, "--width")
        .unwrap_or("72")
        .parse()
        .map_err(|_| "--width must be a number of columns")?;
    let (rt, _) = sim_demo(args, b't', args.iter().any(|a| a == "--faults"))?;

    let log = rt.event_log();
    print!("{}", TraceTree::build(&log).render(width));
    let report = replay(&log);
    println!(
        "health: {} window(s), {} alert(s)",
        report.windows, report.total_alerts
    );
    for p in &report.peers {
        let state = if p.healthy { "healthy" } else { "DEGRADED" };
        println!(
            "  peer p{}: score {:>5.1} {} ({} alert(s))",
            p.peer, p.score, state, p.alerts
        );
    }
    Ok(())
}

/// One rendered frame of the `top` dashboard: the network's metrics and
/// the health report folded from its event log.
fn render_top(network: &asymshare::rt::RtNetwork, elapsed: std::time::Duration) -> String {
    use asymshare_obs::health::replay;

    let snap = network.metrics_snapshot();
    let recv = snap.counter("rt.transport.recv_bytes").unwrap_or(0);
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut out = format!(
        "asymshare top — {:.1}s, {:.2} MB received ({:.2} MB/s)\n",
        secs,
        recv as f64 / 1e6,
        recv as f64 / 1e6 / secs
    );
    let hits = snap.gauge("rt.pool.hits").unwrap_or(0.0);
    let misses = snap.gauge("rt.pool.misses").unwrap_or(0.0);
    let hit_rate = if hits + misses > 0.0 {
        100.0 * hits / (hits + misses)
    } else {
        0.0
    };
    let coalesce = snap
        .histogram("rt.transport.batch_frames")
        .map(|h| {
            if h.count > 0 {
                h.sum as f64 / h.count as f64
            } else {
                0.0
            }
        })
        .unwrap_or(0.0);
    out.push_str(&format!(
        "pool hit rate {hit_rate:.0}%   coalesce {coalesce:.1} frames/datagram   events dropped {}\n",
        network.events().dropped_events()
    ));
    // Serving side: Eq.-2 serve passes, their mean latency, submission
    // queue depth and window backpressure (also exported on /metrics).
    let mean = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean());
    out.push_str(&format!(
        "reactor: {} frames in {} serve passes (mean {:.0} µs)   queue depth {:.1} mean   {} backpressure yield(s)\n",
        snap.counter("rt.reactor.served_frames").unwrap_or(0),
        snap.counter("rt.reactor.passes").unwrap_or(0),
        mean("rt.reactor.pass_us"),
        mean("rt.reactor.queue_depth"),
        snap.counter("rt.reactor.backpressure_yields").unwrap_or(0),
    ));
    let report = replay(&network.events().events());
    out.push_str(&format!(
        "health: {} window(s), {} alert(s)\n",
        report.windows, report.total_alerts
    ));
    for p in &report.peers {
        let bar_len = (p.score / 5.0).round().clamp(0.0, 20.0) as usize;
        let state = if p.healthy { "healthy " } else { "DEGRADED" };
        out.push_str(&format!(
            "  peer {:>4}  [{:<20}] {:>5.1} {}  {} alert(s)\n",
            p.peer,
            "#".repeat(bar_len),
            p.score,
            state,
            p.alerts
        ));
    }
    out
}

/// Runs a seeded real-time download (peers on the reactor, lossy transport)
/// and renders a live terminal dashboard: per-peer health, throughput,
/// pool hit rate and coalesce ratio. `--once` waits for completion and
/// prints a single frame (no escape codes); `--listen ADDR` additionally
/// serves `/metrics` and `/health` over HTTP while running.
fn top(args: &[String]) -> Result<(), String> {
    use asymshare::rt::{
        download_file_with, DownloadOptions, FaultPlan, MetricsServer, Reactor, ReactorConfig,
        RtNetwork,
    };
    use asymshare::{Identity, Peer, User};
    use asymshare_obs::health::replay;
    use asymshare_obs::{EventSink, Registry};
    use std::time::{Duration, Instant};

    let peers: usize = flag_value(args, "--peers")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--peers must be a number")?;
    let size: usize = flag_value(args, "--size")
        .unwrap_or("262144")
        .parse()
        .map_err(|_| "--size must be a number of bytes")?;
    if !(2..=16).contains(&peers) {
        return Err("--peers must be between 2 and 16".to_owned());
    }
    if size == 0 || size > 16 << 20 {
        return Err("--size must be between 1 byte and 16 MiB".to_owned());
    }
    let once = args.iter().any(|a| a == "--once");

    let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
    let server = match flag_value(args, "--listen") {
        Some(bind) => Some(MetricsServer::spawn(&network, bind).map_err(|e| e.to_string())?),
        None => None,
    };
    if let Some(s) = &server {
        eprintln!("serving /metrics and /health on http://{}", s.addr());
    }
    // A seeded file spread over hosted peers, downloaded over a mildly
    // lossy link so the detectors and heal path have work to do.
    let owner = Identity::from_seed(b"cli-top-owner");
    let data: Vec<u8> = (0..size).map(|i| (i * 37 % 251) as u8).collect();
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(9),
        &data,
        16 * 1024,
    )
    .map_err(|e| e.to_string())?;
    let batches = enc.encode_for_peers(peers).map_err(|e| e.to_string())?;
    let manifest = enc.manifest().clone();
    let mut reactor = Reactor::new(&network, ReactorConfig::default());
    let mut peer_addrs = Vec::new();
    for (i, batch) in batches.into_iter().enumerate() {
        let identity = Identity::from_seed(&[b't', b'p', i as u8]);
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            peer.store_mut().insert(m);
        }
        let addr = 100 + i as u64;
        reactor.add_peer(addr, peer, 1 << 20);
        peer_addrs.push((addr, key));
    }
    network.install_faults(FaultPlan::new(7).with_loss(0.03).with_corruption(0.02));

    let started = Instant::now();
    let net = network.clone();
    let home = peer_addrs[0].0;
    let addrs = peer_addrs.clone();
    let download = std::thread::spawn(move || {
        let mut user = User::<Gf2p32>::new(owner, manifest).map_err(|e| e.to_string())?;
        download_file_with(
            &net,
            1,
            &mut user,
            &addrs,
            home,
            DownloadOptions {
                timeout: Duration::from_secs(120),
                stall_timeout: Duration::from_millis(300),
                retry_backoff: Duration::from_millis(100),
                max_peer_retries: 10,
            },
        )
        .map(|d| d.len())
        .map_err(|e| e.to_string())
    });
    if !once {
        while !download.is_finished() {
            // Clear screen + home, then one frame.
            print!("\x1b[2J\x1b[H{}", render_top(&network, started.elapsed()));
            std::thread::sleep(Duration::from_millis(500));
        }
    }
    let outcome = download.join().expect("download thread panicked");
    let report = replay(&network.events().events());
    // Shut down before the final frame so the window gauges flush.
    reactor.shutdown();
    print!("{}", render_top(&network, started.elapsed()));
    if let Some(s) = server {
        s.shutdown();
    }
    let bytes = outcome?;
    println!(
        "downloaded {bytes} bytes in {:.2}s — health: {} alert(s), all healthy: {}",
        started.elapsed().as_secs_f64(),
        report.total_alerts,
        report.all_healthy()
    );
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let manifest_path = flag_value(args, "--manifest").ok_or("--manifest is required")?;
    let bytes = fs::read(manifest_path).map_err(|e| format!("reading {manifest_path}: {e}"))?;
    let manifest = FileManifest::from_bytes(&bytes).map_err(|e| e.to_string())?;
    println!("file id:        {}", manifest.file_id());
    println!("plaintext size: {} bytes", manifest.total_len());
    println!("chunks:         {}", manifest.chunk_count());
    println!(
        "k per chunk:    {}",
        manifest.messages_needed() / manifest.chunk_count() as usize
    );
    println!(
        "digest list:    {} entries, {} bytes ({:?})",
        manifest.auth().len(),
        manifest.auth().overhead_bytes(),
        manifest.auth().kind()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("asymshare-cli-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.to_str().unwrap().to_owned()
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn full_cli_round_trip() {
        let dir = tmp("round");
        let keyfile = format!("{dir}/me.key");
        let input = format!("{dir}/input.bin");
        let out = format!("{dir}/out");
        let restored = format!("{dir}/restored.bin");
        let payload: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        fs::write(&input, &payload).unwrap();

        run(&s(&["keygen", &keyfile])).unwrap();
        run(&s(&[
            "encode", "--key", &keyfile, "--input", &input, "--peers", "3", "--k", "4", "--out",
            &out,
        ]))
        .unwrap();
        // Decode from a single bundle (each is independently sufficient).
        run(&s(&[
            "decode",
            "--key",
            &keyfile,
            "--manifest",
            &format!("{out}/manifest.asym"),
            "--output",
            &restored,
            &format!("{out}/peer1.bundle"),
        ]))
        .unwrap();
        assert_eq!(fs::read(&restored).unwrap(), payload);

        run(&s(&[
            "inspect",
            "--manifest",
            &format!("{out}/manifest.asym"),
        ]))
        .unwrap();
    }

    #[test]
    fn wrong_key_fails_decode() {
        let dir = tmp("wrongkey");
        let keyfile = format!("{dir}/a.key");
        let otherkey = format!("{dir}/b.key");
        let input = format!("{dir}/input.bin");
        let out = format!("{dir}/out");
        fs::write(&input, vec![7u8; 10_000]).unwrap();
        run(&s(&["keygen", &keyfile])).unwrap();
        run(&s(&["keygen", &otherkey])).unwrap();
        run(&s(&[
            "encode", "--key", &keyfile, "--input", &input, "--peers", "1", "--k", "4", "--out",
            &out,
        ]))
        .unwrap();
        let result = run(&s(&[
            "decode",
            "--key",
            &otherkey,
            "--manifest",
            &format!("{out}/manifest.asym"),
            "--output",
            &format!("{dir}/x.bin"),
            &format!("{out}/peer0.bundle"),
        ]));
        // With the wrong key either rank never completes or the output is
        // garbage; the CLI must not silently "succeed" with correct bytes.
        match result {
            Err(_) => {}
            Ok(()) => {
                assert_ne!(fs::read(format!("{dir}/x.bin")).unwrap(), vec![7u8; 10_000]);
            }
        }
    }

    #[test]
    fn keygen_refuses_overwrite() {
        let dir = tmp("nooverwrite");
        let keyfile = format!("{dir}/k.key");
        run(&s(&["keygen", &keyfile])).unwrap();
        assert!(run(&s(&["keygen", &keyfile])).is_err());
    }

    #[test]
    fn metrics_demo_runs_and_writes_events() {
        let dir = tmp("metrics");
        let events = format!("{dir}/events.jsonl");
        run(&s(&[
            "metrics", "--peers", "3", "--size", "32768", "--json", "--events", &events,
        ]))
        .unwrap();
        let log = fs::read_to_string(&events).unwrap();
        assert!(log.lines().count() > 0);
        assert!(log.contains("\"component\": \"sim.alloc\""));
        // Bad arguments are rejected before any simulation work happens.
        assert!(run(&s(&["metrics", "--peers", "1"])).is_err());
        assert!(run(&s(&["metrics", "--size", "0"])).is_err());
    }

    #[test]
    fn metrics_demo_is_deterministic() {
        for format in [&[][..], &["--json"][..]] {
            let args = s(&[&["--peers", "3", "--size", "32768"][..], format].concat());
            assert_eq!(
                metrics(&args).unwrap(),
                metrics(&args).unwrap(),
                "{format:?}"
            );
        }
        // The simulated deployment reads no wall clock, so it reports no
        // allocator timings.
        let (rt, _) = sim_demo(&s(&["--peers", "3", "--size", "32768"]), b'm', false).unwrap();
        let snapshot = rt.metrics_snapshot();
        let names = (snapshot.counters.iter().map(|(n, _)| n))
            .chain(snapshot.gauges.iter().map(|(n, _)| n))
            .chain(snapshot.histograms.iter().map(|(n, _)| n));
        for name in names {
            assert!(!name.starts_with("alloc."), "{name}");
        }
    }

    #[test]
    fn trace_demo_renders_waterfall() {
        run(&s(&[
            "trace", "--peers", "3", "--size", "32768", "--width", "48",
        ]))
        .unwrap();
        run(&s(&[
            "trace", "--peers", "3", "--size", "32768", "--faults",
        ]))
        .unwrap();
        assert!(run(&s(&["trace", "--peers", "1"])).is_err());
        assert!(run(&s(&["trace", "--size", "0"])).is_err());
    }

    #[test]
    fn top_once_completes_with_listener() {
        run(&s(&[
            "top",
            "--peers",
            "2",
            "--size",
            "32768",
            "--once",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap();
        assert!(run(&s(&["top", "--peers", "1"])).is_err());
    }

    #[test]
    fn top_once_on_the_reactor_runtime() {
        run(&s(&["top", "--peers", "2", "--size", "32768", "--once"])).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["--key", "k", "pos1", "--out", "o", "pos2"]);
        assert_eq!(flag_value(&args, "--key"), Some("k"));
        assert_eq!(flag_value(&args, "--out"), Some("o"));
        assert_eq!(flag_value(&args, "--missing"), None);
        assert_eq!(positionals(&args), vec!["pos1", "pos2"]);
    }
}
