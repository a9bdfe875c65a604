#!/usr/bin/env bash
# Bench smoke check: rerun the committed benchmarks in --quick mode and fail
# on malformed JSON output or a >30% regression against the checked-in
# snapshots (BENCH_rlnc.json, BENCH_transport.json, BENCH_alloc.json,
# BENCH_adversary.json, BENCH_profile.json). This is a CI noise guard, not a
# precision benchmark — the committed numbers themselves come from full
# (median/min-of-samples) runs on a quiet machine.
set -euo pipefail
cd "$(dirname "$0")/.."

snapshot=$(mktemp -d)
# The bench binaries overwrite the committed JSON in place; always restore
# the committed snapshots afterwards so the tree stays clean.
trap 'cp "$snapshot"/*.json . 2>/dev/null || true; rm -rf "$snapshot"' EXIT
cp BENCH_rlnc.json BENCH_transport.json BENCH_alloc.json BENCH_adversary.json \
   BENCH_profile.json "$snapshot"/

cargo run --release -p asymshare-bench --bin bench_baseline -- --quick
cargo run --release -p asymshare-bench --bin bench_transport -- --quick
cargo run --release --features simd -p asymshare-bench --bin bench_alloc -- --quick
cargo run --release -p asymshare-bench --bin bench_adversary -- --quick
cargo run --release -p asymshare-bench --bin bench_profile -- --quick

python3 - "$snapshot" <<'EOF'
import json
import sys

snap = sys.argv[1]
TOLERANCE = 0.30

def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"malformed bench output {path}: {err}")
        sys.exit(1)

# (file, label, getter, direction): "higher" metrics regress by dropping,
# "lower" metrics regress by growing. Tiny "lower" metrics also need an
# absolute slack so 0.4 -> 0.6 allocs/msg jitter does not trip the gate.
CHECKS = [
    ("BENCH_rlnc.json", "encode_mb_per_s", lambda d: d["encode_mb_per_s"], "higher"),
    ("BENCH_rlnc.json", "decode_mb_per_s", lambda d: d["decode_mb_per_s"], "higher"),
    ("BENCH_transport.json", "after.mb_per_s", lambda d: d["after"]["mb_per_s"], "higher"),
    ("BENCH_transport.json", "after.allocs_per_msg", lambda d: d["after"]["allocs_per_msg"], "lower"),
    # Slab allocator gates: slot throughput at the smallest scale (kernel
    # dispatch + per-row overhead dominated) and aggregate user throughput at
    # the largest scale (streaming bandwidth dominated). Both are min-of-
    # samples in the committed file and a single sample in the quick rerun.
    ("BENCH_alloc.json", "scales[0].slots_per_sec", lambda d: d["scales"][0]["slots_per_sec"], "higher"),
    ("BENCH_alloc.json", "scales[-1].users_per_sec", lambda d: d["scales"][-1]["users_per_sec"], "higher"),
    # Idle hosted peers must stay free: throughput with 3 serving peers
    # among the largest committed hosted-peer count.
    ("BENCH_transport.json", "scaling[-1].mb_per_s", lambda d: d["scaling"][-1]["mb_per_s"], "higher"),
]

# Observability columns both benches must now emit: their absence means a
# bench binary silently stopped sampling the instrumentation layer.
REQUIRED_FIELDS = [
    ("BENCH_transport.json", ["metrics.disabled_mb_per_s", "metrics.observed_mb_per_s",
                              "metrics.overhead_pct", "metrics.pool_hit_rate",
                              "metrics.coalesce_mean_frames", "metrics.coalesce_p50_frames",
                              "metrics.coalesce_p95_frames", "metrics.served_frames",
                              "metrics.transport_sends",
                              "health.plain_mb_per_s", "health.enabled_mb_per_s",
                              "health.overhead_pct", "health.windows",
                              "health.peers_scored", "health.min_score"]),
    ("BENCH_rlnc.json", ["fairness.jain_index_bytes", "fairness.home_credit_min",
                         "fairness.home_credit_max", "fairness.slot_share_events"]),
    ("BENCH_alloc.json", ["config.peers", "config.edges_per_user", "config.rule",
                          "config.kernel", "config.samples", "config.statistic"]),
    ("BENCH_adversary.json", ["config.fault_seed", "config.warmup_slots",
                              "honest.goodput_kbps", "honest.duration_secs"]),
    ("BENCH_profile.json", ["config.fault_seed", "config.warmup_rounds",
                            "static.chunk_bytes", "static.download_secs",
                            "adaptive.chunk_bytes", "adaptive.download_secs",
                            "adaptive.settled_rungs", "download_speedup"]),
]

failed = False

# BENCH_alloc.json structural check: three committed scales, each with the
# full column set. The dotted-path walker above cannot index lists, so the
# scales array is validated here before the CHECKS lambdas index into it.
ALLOC_SCALE_FIELDS = ["users", "slots", "edges", "slots_per_sec",
                      "users_per_sec", "mean_jain", "allocs_per_slot"]
alloc_fresh = load("BENCH_alloc.json")
alloc_scales = alloc_fresh.get("scales")
if not isinstance(alloc_scales, list) or len(alloc_scales) < 3:
    print("BENCH_alloc.json must commit >= 3 scales [MISSING]")
    failed = True
    alloc_scales = []
for i, entry in enumerate(alloc_scales):
    for field in ALLOC_SCALE_FIELDS:
        if field not in entry:
            print(f"BENCH_alloc.json scales[{i}] missing field {field} [MISSING]")
            failed = True
if failed:
    sys.exit(1)

# BENCH_transport.json structural check: the scaling sweep must commit >= 3
# hosted-peer counts (same list-index limitation as the alloc scales above).
transport_scales = load("BENCH_transport.json").get("scaling")
if not isinstance(transport_scales, list) or len(transport_scales) < 3:
    print("BENCH_transport.json must commit >= 3 scaling points [MISSING]")
    failed = True
    transport_scales = []
for i, entry in enumerate(transport_scales):
    for field in ["peers", "mb_per_s"]:
        if field not in entry:
            print(f"BENCH_transport.json scaling[{i}] missing field {field} [MISSING]")
            failed = True
if failed:
    sys.exit(1)

for name, paths in REQUIRED_FIELDS:
    fresh = load(name)
    for dotted in paths:
        node = fresh
        try:
            for part in dotted.split("."):
                node = node[part]
        except (KeyError, TypeError):
            print(f"{name} missing required field {dotted} [MISSING]")
            failed = True

# Metrics must stay near-free on the transport hot path. The bench measures
# this in-process with ABBA-interleaved disabled/observed runs (so machine
# warmup drift cancels). The gate reads the *committed* full-run figure
# (median of 10 pairs) — a quick rerun's 4-run estimate is far too noisy to
# hold a 5% line, so it is reported for information only.
committed_overhead = load(f"{snap}/BENCH_transport.json").get("metrics", {}).get("overhead_pct", 100.0)
fresh_overhead = load("BENCH_transport.json").get("metrics", {}).get("overhead_pct")
if committed_overhead > 5.0:
    print(f"BENCH_transport.json metrics.overhead_pct: committed {committed_overhead}% > 5% [REGRESSED]")
    failed = True
else:
    print(f"BENCH_transport.json metrics.overhead_pct: committed {committed_overhead}% "
          f"(quick rerun {fresh_overhead}%, informational) [ok]")

# Same discipline for the health engine: the streaming detector bank must
# stay near-free on the data plane. The committed full-run figure is gated
# at 5%; the quick rerun is informational.
committed_health = load(f"{snap}/BENCH_transport.json").get("health", {}).get("overhead_pct", 100.0)
fresh_health = load("BENCH_transport.json").get("health", {}).get("overhead_pct")
if committed_health > 5.0:
    print(f"BENCH_transport.json health.overhead_pct: committed {committed_health}% > 5% [REGRESSED]")
    failed = True
else:
    print(f"BENCH_transport.json health.overhead_pct: committed {committed_health}% "
          f"(quick rerun {fresh_health}%, informational) [ok]")
# Byzantine-defense gates. The adversary bench runs on the deterministic
# slot simulator, so the quick rerun reproduces the committed numbers
# exactly on an unchanged tree; the gates catch behavioral drift, not
# machine noise. Per strategy: the attacker must still be detected (within
# 30% of the committed latency, with a one-slot absolute slack for integer
# granularity), must still end up quarantined, and the re-planned download
# must retain >= 80% of the honest-capacity goodput floor.
ADVERSARY_STRATEGIES = ["pollute", "replay", "selective", "inflate_credit"]
ADVERSARY_ROW_FIELDS = ["detection_slots", "detection_ms", "goodput_kbps",
                        "recovery_ratio", "quarantined", "attack_alerts"]
adv_committed = load(f"{snap}/BENCH_adversary.json").get("attacks", {})
adv_fresh = load("BENCH_adversary.json").get("attacks", {})
for strategy in ADVERSARY_STRATEGIES:
    committed_row = adv_committed.get(strategy)
    fresh_row = adv_fresh.get(strategy)
    if not isinstance(fresh_row, dict) or not isinstance(committed_row, dict):
        print(f"BENCH_adversary.json attacks.{strategy}: missing row [MISSING]")
        failed = True
        continue
    missing = [f for f in ADVERSARY_ROW_FIELDS if f not in fresh_row]
    if missing:
        print(f"BENCH_adversary.json attacks.{strategy} missing fields {missing} [MISSING]")
        failed = True
        continue
    committed_slots = committed_row["detection_slots"]
    fresh_slots = fresh_row["detection_slots"]
    regressed = fresh_slots > committed_slots * (1 + TOLERANCE) and fresh_slots - committed_slots > 1.0
    status = "REGRESSED" if regressed else "ok"
    print(f"BENCH_adversary.json attacks.{strategy}.detection_slots: "
          f"committed {committed_slots}, quick rerun {fresh_slots} [{status}]")
    failed = failed or regressed
    if not fresh_row["quarantined"]:
        print(f"BENCH_adversary.json attacks.{strategy}.quarantined: false [REGRESSED]")
        failed = True
    recovery = fresh_row["recovery_ratio"]
    if recovery < 0.8:
        print(f"BENCH_adversary.json attacks.{strategy}.recovery_ratio: {recovery} < 0.8 [REGRESSED]")
        failed = True
    else:
        print(f"BENCH_adversary.json attacks.{strategy}.recovery_ratio: {recovery} [ok]")

# Adaptive-sizing gates. bench_profile runs on the deterministic seeded
# simulator, so like the adversary bench the quick rerun reproduces the
# committed numbers exactly on an unchanged tree — the 30% tolerance only
# absorbs intentional retunes of the sim or ladder, not machine noise.
# The headline invariant reads the *committed* file: on the heterogeneous
# swarm, profile-steered sizing must beat the static 1 MiB chunk.
prof_committed = load(f"{snap}/BENCH_profile.json")
prof_fresh = load("BENCH_profile.json")
committed_speedup = prof_committed["download_speedup"]
if committed_speedup <= 1.0:
    print(f"BENCH_profile.json download_speedup: committed {committed_speedup} "
          f"<= 1.0 — adaptive sizing no longer wins on the hetero swarm [REGRESSED]")
    failed = True
else:
    print(f"BENCH_profile.json download_speedup: committed {committed_speedup}x [ok]")
fresh_speedup = prof_fresh["download_speedup"]
if fresh_speedup < committed_speedup * (1 - TOLERANCE):
    print(f"BENCH_profile.json download_speedup: committed {committed_speedup}, "
          f"quick rerun {fresh_speedup} [REGRESSED]")
    failed = True
else:
    print(f"BENCH_profile.json download_speedup: committed {committed_speedup}, "
          f"quick rerun {fresh_speedup} [ok]")
rungs = prof_fresh["adaptive"]["settled_rungs"]
if not isinstance(rungs, list) or not rungs:
    print("BENCH_profile.json adaptive.settled_rungs must be a non-empty list [MISSING]")
    failed = True

for name, label, get, direction in CHECKS:
    committed = get(load(f"{snap}/{name}"))
    fresh = get(load(name))
    if direction == "higher":
        regressed = fresh < committed * (1 - TOLERANCE)
    else:
        regressed = fresh > committed * (1 + TOLERANCE) and fresh - committed > 0.5
    status = "REGRESSED" if regressed else "ok"
    print(f"{name} {label}: committed {committed}, quick rerun {fresh} [{status}]")
    failed = failed or regressed

sys.exit(1 if failed else 0)
EOF
