#!/usr/bin/env bash
# Gates a traced `shaped` run of benchmark/run.sh (its last stdout line, on
# stdin): Eq. 2 reaches the wire and the link stays full. Both numbers are
# ratios of delivered bytes, so they hold on any machine.
set -euo pipefail
tail -n 1 | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
err, eff = m["rt.reactor.share_error"]["value"], m["rt.limiter.uplink_efficiency"]["value"]
print(f"rt.reactor.share_error {err:.3f} (<= 0.05)  rt.limiter.uplink_efficiency {eff:.3f} (>= 0.97)")
sys.exit(0 if err <= 0.05 and eff >= 0.97 else 1)'
