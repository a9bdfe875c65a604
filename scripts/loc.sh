#!/usr/bin/env bash
# Non-test line count of the product: for every file under crates/*/src the
# lines before its first `#[cfg(test)]`, plus scripts/ whole; then the same
# count for the vendored stand-ins under shims/*/src. The numbers the
# simplicity PRs quote before -> after; run from any commit's checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
for dirs in "crates/*/src scripts" "shims/*/src"; do
    find $dirs -type f -print0 |
        xargs -0 awk 'FNR == 1 { test = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'
done
