#!/usr/bin/env python3
"""SOFE service benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library sources under src/) into .bench_build/perfbench, runs one workload
and prints the result as the last stdout line:

    python3 perfbench/run.py --workload softlayer-churn --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split
(spans are exported to .bench_build/perfbench-trace/).  --out FILE appends
the full record (fingerprint, digest, metrics) as one JSON line, the input
format of perfbench/compare.py.  --record-digests SEEDS re-records
perfbench/digests.json for the given seeds (e.g. 0-15).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-trace"
BINARY = BUILD_DIR / "service_bench"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ["softlayer-churn", "inet-closure", "cogent-drill", "inet-sharded"]
RECORDED = ["softlayer-churn", "inet-closure", "cogent-drill"]  # inet-sharded reuses inet-closure
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "sofe").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def run_binary(args):
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"service_bench timed out after {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(proc.stderr)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            record = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if record is None:
        fail(f"service_bench exited {proc.returncode} without a result", 5)
    return record


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cpp", ".hpp", ".py", ".txt", ".json"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def record_digests(spec, workloads):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    digests = load_digests()
    for w in workloads:
        for s in seeds:
            rec = run_binary(["--workload", w, "--seed", str(s), "--record"])
            if not rec["correct"]:
                fail(f"{w} seed {s}: pipeline and replay disagree: {rec['errors']}", 1)
            digests.setdefault(w, {})[str(s)] = rec["digests"]
            print(f"{w} seed {s}: {' '.join(rec['digests'])}", flush=True)
    # One line per seed: {"workload": {"seed": [per-stream digests]}}.
    blocks = []
    for w, per_seed in sorted(digests.items()):
        rows = ",\n".join(f'  "{s}": {json.dumps(d)}'
                          for s, d in sorted(per_seed.items(), key=lambda kv: int(kv[0])))
        blocks.append(f' "{w}": {{\n{rows}\n }}')
    DIGESTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full JSON record to this file")
    ap.add_argument("--record-digests", metavar="SEEDS", help="re-record digests, e.g. 0-15")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    if args.record_digests:
        record_digests(args.record_digests, [args.workload] if args.workload else RECORDED)
        return 0
    if args.workload is None:
        fail("--workload is required")

    rec = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--trace-dir", str(TRACE_DIR)])
    errors = list(rec["errors"])
    # dist/k=4 is bitwise the centralized solver, so the sharded workload is
    # held to the digests recorded for the same streams on inet-closure.
    source = "inet-closure" if args.workload == "inet-sharded" else args.workload
    expected = load_digests().get(source, {}).get(str(args.seed))
    got = rec["digests"]
    if expected is not None and got != expected[:len(got)]:
        errors.append(f"digests {got} != recorded {expected[:len(got)]} ({source})")
    names = expected_metrics(args.trace)
    if sorted(names) != sorted(rec["metrics"]):
        errors.append("metric set differs from BENCHMARK.json")
    correct = rec["correct"] and not errors
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    rec["fingerprint"].update({"git_sha": git_sha(), "source_sha256": source_digest(),
                               "nproc": os.cpu_count(), "machine": platform.machine()})
    print("fingerprint " + json.dumps(rec["fingerprint"], sort_keys=True))
    if args.out:
        rec.update({"correct": correct, "errors": errors})
        with open(args.out, "a") as f:
            f.write(json.dumps(rec) + "\n")

    failed = rec["failed"] if correct else max(1, rec["failed"])
    print(json.dumps({"correct": correct, "attempted": rec["attempted"], "failed": failed,
                      "metrics": {n: rec["metrics"][n] for n in names if n in rec["metrics"]}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
