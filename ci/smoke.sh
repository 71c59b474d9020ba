#!/usr/bin/env bash
# Smoke gates for the experiment suite: one baseline run of every
# experiment at CI scale, then every byte-identity gate against it.
# CI's smoke job runs exactly this; so can anyone, locally:
#
#   bash ci/smoke.sh <output-root>
#
# Outputs land under <output-root>: the binaries (bin/), the baseline
# results and REPORT.md (base/), and one directory per gate.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <output-root>" >&2
  exit 2
fi
mkdir -p "$1"
root=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

# Build once and run copies: the traced build overwrites run_all.
bin=$root/bin
target=${CARGO_TARGET_DIR:-target}/release
mkdir -p "$bin"
cargo build --release --locked -p pageforge-bench \
  --bin run_all --bin snapshot_diff --bin trace_report --bin make_report
cp "$target"/{run_all,snapshot_diff,trace_report,make_report} "$bin/"
cargo build --release --locked -p pageforge-bench --features trace --bin run_all
cp "$target/run_all" "$bin/run_all-trace"

# Fails unless two output directories hold byte-identical result files.
same_results() {
  diff <(cd "$1" && sha256sum -- *.json) <(cd "$2" && sha256sum -- *.json)
}
smoke_run() { "$bin/run_all" --smoke "$@"; }

# 1. Baseline with the probe-cell snapshot. The fleet, chaos and fault
#    campaigns must be in it; their safety asserts run in-suite.
smoke_run --jobs 2 --out "$root/base" --snapshot "$root/base-snap.json"
for stem in fleet_serverless fleet_chaos fault_campaign; do
  test -f "$root/base/$stem.json"
done

# 2. Determinism across scheduler jobs: results byte-identical, snapshot
#    metrics identical at zero tolerance.
smoke_run --jobs 4 --out "$root/j4" --snapshot "$root/j4-snap.json"
same_results "$root/base" "$root/j4"
"$bin/snapshot_diff" "$root/base-snap.json" "$root/j4-snap.json" --threshold 0

# 3. An empty fault plan takes exactly the no-flag path.
echo '{"seed":0,"events":[],"stalls":[]}' > "$root/empty_plan.json"
smoke_run --jobs 2 --out "$root/empty-plan" --faults "$root/empty_plan.json"
same_results "$root/base" "$root/empty-plan"

# 4. Tracing leaves results byte-identical, and its stream folds into the
#    attribution table make_report renders.
"$bin/run_all-trace" --smoke --jobs 2 --out "$root/traced" --trace "$root/trace.jsonl"
same_results "$root/base" "$root/traced"
"$bin/trace_report" --trace "$root/trace.jsonl" --out "$root/base"
"$bin/make_report" --out "$root/base"
grep -q "Trace attribution" "$root/base/REPORT.md"

# 5. The committed fleet plan (crashes, a gray window, an engine wedge,
#    two migration failures) is byte-identical across jobs.
smoke_run --jobs 2 --only fleet --fleet-faults ci/chaos_plan.json --out "$root/chaos"
smoke_run --jobs 4 --only fleet --fleet-faults ci/chaos_plan.json --out "$root/chaos-j4"
same_results "$root/chaos" "$root/chaos-j4"

# 6. An empty fleet plan takes exactly the no-flag path.
echo '{"version":1,"seed":0,"events":[]}' > "$root/empty_fleet_plan.json"
smoke_run --jobs 2 --only fleet --fleet-faults "$root/empty_fleet_plan.json" \
  --out "$root/empty-fleet-plan"
cmp "$root/base/fleet_serverless.json" "$root/empty-fleet-plan/fleet_serverless.json"

echo "smoke: all gates passed; results under $root"
