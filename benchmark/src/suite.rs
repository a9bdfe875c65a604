//! Everything that runs more than one workload: the full set (each
//! workload in its own process, untraced then traced), the A/A check, the
//! correctness self-test, and the `BENCHMARK.json` generator.

use crate::json::{self, Json};
use crate::metrics::{self, Def};
use crate::ops;
use crate::stats;
use crate::world::{self, Spec, SPECS, USER_BASE_ADDR};
use asymshare::rt::{DownloadOptions, RtNetwork};
use asymshare_rlnc::{EncodedMessage, FileId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u32 = 10;

/// One child run's result line, parsed.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
    pub warnings: Vec<String>,
}

/// Runs one workload in its own process (this same executable) and parses
/// the result line. The child's human-readable lines pass through.
pub fn run_child(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    results_dir: &Path,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--results-dir")
        .arg(results_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    if echo {
        for line in &lines {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", spec.name, output.status));
    }
    let doc = json::parse(last).map_err(|e| format!("{}: bad result line: {e}", spec.name))?;
    let field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| format!("result line lacks {name}"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
    {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without value")?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without unit")?;
        metrics.insert(name.clone(), (value, unit.to_owned()));
    }
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        warnings: lines
            .iter()
            .filter_map(|l| l.strip_prefix("warning: "))
            .map(str::to_owned)
            .collect(),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and how the numbers were taken, as a JSON object.
fn environment(seed: u64, seconds: f64, scrubbed: &[(String, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let scrubbed: Vec<String> = scrubbed
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": \"release\", \"features\": \"default (no simd)\", \"commit\": {}, \"seed\": {seed}, \"run_seconds\": {}, \"asymshare_threads\": \"unset\", \"scrubbed_env\": {{{}}}}}",
        json::quote(&command_line("rustc", &["--version"])),
        json::quote(&command_line("git", &["rev-parse", "HEAD"])),
        json::number(seconds),
        scrubbed.join(", "),
    )
}

fn metrics_object(metrics: &BTreeMap<String, (f64, String)>) -> String {
    json::metrics_object(
        metrics
            .iter()
            .map(|(name, (value, unit))| (name.as_str(), *value, unit.as_str())),
    )
}

fn strings_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json::quote(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The full set: every workload untraced, then traced, each in its own
/// process; prints every metric and writes `results.json`. Returns whether
/// every output was correct.
pub fn suite(
    seed: u64,
    seconds: f64,
    results_dir: &Path,
    scrubbed: &[(String, String)],
) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows = Vec::new();
    for spec in &SPECS {
        println!("== {} (untraced)", spec.name);
        let plain = run_child(spec, seed, seconds, false, results_dir, true)?;
        println!("== {} (traced)", spec.name);
        let traced = run_child(spec, seed, seconds, true, results_dir, true)?;
        let untraced_p50 = plain.metrics.get("op_p50_ms").map_or(0.0, |m| m.0);
        let traced_p50 = traced
            .metrics
            .get("obs.traced_op_p50_ms")
            .map_or(0.0, |m| m.0);
        let overhead = if untraced_p50 > 0.0 {
            (traced_p50 / untraced_p50 - 1.0) * 100.0
        } else {
            0.0
        };
        println!(
            "  {:<40} {:>14.3} %   (traced {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms)",
            "obs.trace_overhead_pct", overhead
        );
        all_correct &= plain.correct && traced.correct;
        let mut warnings = plain.warnings.clone();
        warnings.extend(traced.warnings.iter().cloned());
        rows.push(format!(
            "    {}: {{\"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"traced_ops_attempted\": {}, \"traced_ops_failed\": {}, \"obs.trace_overhead_pct\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"warnings\": {}}}",
            json::quote(spec.name),
            plain.correct && traced.correct,
            plain.attempted,
            plain.failed,
            traced.attempted,
            traced.failed,
            json::number(overhead),
            metrics_object(&plain.metrics),
            metrics_object(&traced.metrics),
            strings_array(&warnings),
        ));
    }
    let doc = format!(
        "{{\n  \"environment\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        environment(seed, seconds, scrubbed),
        rows.join(",\n")
    );
    let path = results_dir.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// Samples of every end-to-end metric of one set of runs:
/// `[workload][metric] -> values`.
type Samples = BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>>;

/// The A/A check: two sets of `runs` untraced runs per workload of the same
/// build, interleaved and in alternating order. For every workload × metric
/// it prints how much worse set B's median is than set A's against the
/// metric's bound, and (from two runs per set up) each set's own spread —
/// quartile distance over median — against the same bound; `setup_s`'s
/// spread is shown but not gated. Returns whether everything held.
pub fn aa(
    seed: u64,
    seconds: f64,
    runs: usize,
    results_dir: &Path,
    scrubbed: &[(String, String)],
) -> Result<bool, String> {
    let mut sets: [Samples; 2] = [Samples::new(), Samples::new()];
    for round in 0..runs {
        // A then B on even rounds, B then A on odd; A walks the workloads
        // forwards and B backwards, so neither always runs on a warm box.
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            let specs: Vec<&Spec> = if set == 0 {
                SPECS.iter().collect()
            } else {
                SPECS.iter().rev().collect()
            };
            for spec in specs {
                let run_seed = seed + round as u64;
                eprintln!(
                    "aa: round {} set {} {} seed {run_seed}",
                    round + 1,
                    ["A", "B"][set],
                    spec.name
                );
                let result = run_child(spec, run_seed, seconds, false, results_dir, false)?;
                if !result.correct || result.failed > 0 {
                    return Err(format!(
                        "{}: correct = {}, {} of {} ops failed",
                        spec.name, result.correct, result.failed, result.attempted
                    ));
                }
                for def in &metrics::END_TO_END {
                    let value = result.metrics.get(def.name).ok_or("missing metric")?.0;
                    sets[set]
                        .entry(spec.name)
                        .or_default()
                        .entry(def.name)
                        .or_default()
                        .push(value);
                }
            }
        }
    }

    let mut held = true;
    let mut rows = Vec::new();
    println!(
        "{:<11} {:<15} {:>12} {:>12} {:>9} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for spec in &SPECS {
        for def in &metrics::END_TO_END {
            let a = &sets[0][spec.name][def.name];
            let b = &sets[1][spec.name][def.name];
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let (median_a, median_b) = (stats::median(a), stats::median(b));
            let shift = stats::worsening(median_a, median_b, def.higher_is_better);
            let spreads = [stats::iqr_over_median(a), stats::iqr_over_median(b)];
            let spread_gated = def.name != "setup_s";
            let miss =
                shift > bound || (spread_gated && spreads.iter().flatten().any(|&s| s > bound));
            held &= !miss;
            let show = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<11} {:<15} {:>12.4} {:>12.4} {:>8.1}% {:>9} {:>9} {:>5.0}%  {}",
                spec.name,
                def.name,
                median_a,
                median_b,
                shift * 100.0,
                show(spreads[0]),
                show(spreads[1]),
                bound * 100.0,
                if miss { "MISS" } else { "ok" }
            );
            let num = |s: Option<f64>| s.map_or("null".to_owned(), json::number);
            rows.push(format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"bound\": {}, \"median_a\": {}, \"median_b\": {}, \"b_worse_than_a\": {}, \"spread_a\": {}, \"spread_b\": {}, \"held\": {}}}",
                json::quote(spec.name),
                json::quote(def.name),
                json::quote(def.unit),
                json::number(bound),
                json::number(median_a),
                json::number(median_b),
                json::number(shift),
                num(spreads[0]),
                num(spreads[1]),
                !miss
            ));
        }
    }
    let doc = format!(
        "{{\n  \"environment\": {},\n  \"runs_per_set\": {runs},\n  \"rows\": [\n{}\n  ]\n}}\n",
        environment(seed, seconds, scrubbed),
        rows.join(",\n")
    );
    let path = results_dir.join("aa.json");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(held)
}

/// Proof that the correctness gate is live. First, one byte of one stored
/// message's payload is flipped before the peers are hosted: the fetch must
/// see digest rejects and still return the original file. Then the
/// *expected* bytes are corrupted instead: the same op must count as
/// failed. Returns a description of what went wrong, if anything did.
pub fn selftest() -> Result<(), String> {
    const SEED: u64 = 7;
    const FILE: usize = 64 << 10; // one chunk: every peer's first frame is message 0
    let owner = world::identity(SEED, "owner");
    let peer_ids = world::peer_identities(SEED);
    let data = world::generate(SEED, 1, FILE);
    let mut published = world::publish(&owner, 1, &data, FILE, &peer_ids, None)?;
    let manifest = published.manifest.clone();

    // Rebuild peer 0's store with one payload byte flipped in message 0.
    let stock: Vec<EncodedMessage> = published.peers[0].store().messages(FileId(1)).to_vec();
    published.peers[0].store_mut().remove_file(FileId(1));
    for (i, message) in stock.into_iter().enumerate() {
        let message = if i == 0 {
            let mut payload = message.payload().to_vec();
            let middle = payload.len() / 2;
            payload[middle] ^= 0x01;
            EncodedMessage::new(message.file_id(), message.message_id(), payload)
        } else {
            message
        };
        published.peers[0].store_mut().insert(message);
    }

    let owner_key = owner.public_key().to_bytes();
    for peer in &mut published.peers {
        peer.add_subscriber(owner_key);
    }
    let hosted = world::Hosted::new(RtNetwork::new(), published.peers, world::UNSHAPED);
    let file = world::Owned {
        owner,
        manifest,
        data,
    };
    let options = || DownloadOptions {
        timeout: Duration::from_secs(10),
        stall_timeout: Duration::from_millis(300),
        retry_backoff: Duration::from_millis(100),
        max_peer_retries: 20,
    };

    let healed = ops::product_fetch(
        &hosted,
        &file,
        &file.data,
        USER_BASE_ADDR + 1,
        options(),
        None,
    );
    println!(
        "selftest 1: stored payload byte flipped -> ok = {}, digest rejects = {}, replacement requests = {}",
        healed.ok, healed.heal.digest_rejects, healed.heal.replacements
    );
    if !healed.ok {
        return Err(format!(
            "the fetch did not survive one corrupted stored message: {:?}",
            healed.error
        ));
    }
    if healed.heal.digest_rejects == 0 {
        return Err("the corrupted stored message was never digest-rejected".to_owned());
    }

    let mut wrong = file.data.clone();
    wrong[FILE / 3] ^= 0x80;
    let caught = ops::product_fetch(&hosted, &file, &wrong, USER_BASE_ADDR + 2, options(), None);
    let ops_failed = u64::from(!caught.ok);
    println!(
        "selftest 2: expected bytes corrupted -> ops_failed = {ops_failed}, wrong_bytes = {}",
        caught.wrong_bytes
    );
    if ops_failed != 1 || !caught.wrong_bytes {
        return Err(
            "a fetch that differs from the expected bytes was not counted as failed".to_owned(),
        );
    }
    println!("selftest passed: the byte comparison is live");
    Ok(())
}

fn def_json(def: &Def) -> String {
    let better = def.better();
    match def.bound {
        Some(bound) => format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{better}\", \"bound\": {}}}",
            json::quote(def.name),
            json::quote(def.unit),
            json::number(bound)
        ),
        None => format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{better}\"}}",
            json::quote(def.name),
            json::quote(def.unit)
        ),
    }
}

/// `BENCHMARK.json`, generated from the workload and metric tables so the
/// file and the program cannot drift apart.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(s.name),
                json::quote(s.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = metrics::END_TO_END.iter().map(def_json).collect();
    let per_layer: Vec<String> = metrics::PER_LAYER.iter().map(def_json).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The workload and metric tables as markdown, for `benchmark/README.md`.
pub fn describe() -> String {
    let mut out = String::from("| workload | why it exists |\n|---|---|\n");
    for spec in &SPECS {
        out.push_str(&format!("| `{}` | {} |\n", spec.name, spec.why));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for def in &metrics::END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            def.name,
            def.unit,
            def.better(),
            def.bound.expect("end-to-end metrics are bounded"),
            def.note
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | what it is -> what it should move |\n|---|---|---|---|\n");
    for def in &metrics::PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            def.name,
            def.unit,
            def.better(),
            def.note
        ));
    }
    out
}

/// The default results directory: `benchmark/results/`, beside the sources
/// this executable was built from.
pub fn default_results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}
