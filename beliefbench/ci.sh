#!/usr/bin/env bash
# Checks for the beliefbench package alone; the repository's workflow
# does not build it. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo test --release -q
cargo run --release --quiet -- --quick >/dev/null

# BENCHMARK.json must declare exactly the names the harness prints.
cargo run --release --quiet -- --names | python3 -c '
import json, sys
have = json.load(sys.stdin)
want = json.load(open("../BENCHMARK.json"))
strip = lambda ms: [{k: m[k] for k in ("name", "unit", "better")} for m in ms]
assert [w["name"] for w in want["workloads"]] == have["workloads"], "workloads differ"
for key in ("end_to_end", "per_layer"):
    assert strip(want[key]) == have[key], key + " differs"
assert any(m["name"] == "setup_s" for m in want["end_to_end"])
print("BENCHMARK.json matches the harness:", len(have["end_to_end"]), "end-to-end and",
      len(have["per_layer"]), "per-layer metrics")
'
