#!/usr/bin/env bash
# Builds the benchmark in release mode with default features (what the
# repository's tier-1 build uses: no `simd`) and runs it.
#
#   benchmark/run.sh [--seed N]              all six workloads, untraced then
#                                            traced; writes results/results.json
#   benchmark/run.sh --quick                 the same with a tenth of the window
#   benchmark/run.sh --selftest              prove the byte comparison is live
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one workload; the last stdout line
#                                            is the result object
#
# Build output goes to stderr, so stdout stays the program's own.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

# /proc/self/stat counts CPU time in clock ticks; the program assumes 100/s.
ticks=$(getconf CLK_TCK 2>/dev/null || echo 100)
if [ "$ticks" != 100 ]; then
    echo "run.sh: CLK_TCK is $ticks, not 100; cpu_ms_per_mib would be wrong" >&2
    exit 2
fi

# Cargo reads a relative CARGO_TARGET_DIR against its own working
# directory; pin it to the caller's so the binary is where we look for it.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in
    /*) ;;
    *) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/asymshare-benchmark" --results-dir "$here/results" "$@"
