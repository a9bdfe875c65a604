#!/usr/bin/env bash
# A/A check: runs every workload in two interleaved sets of the same build
# and prints, per workload x end-to-end metric, how far the second set's
# median is from the first's against the metric's bound. Exits non-zero on
# a miss; writes results/aa.json.
#
#   benchmark/aa.sh              one run per set (about 3 minutes)
#   benchmark/aa.sh --runs 10    ten seeds per set: also gates each set's own
#                                spread (quartile distance over median), as
#                                the acceptance check does (about 30 minutes)
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "$@"
