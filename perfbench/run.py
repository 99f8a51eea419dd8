#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload meta_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke          # all workloads, tiny scale, checks
                                              # every metric of BENCHMARK.json

Run from the repository root. Builds `perfbench` (the benchmark binary) and
`simurgh-served` (the daemon `served_read` drives) from source into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload and passes its
output through. The last line of standard output is the result JSON
(`correct`, `attempted`, `failed`, `metrics`); the line before it is the
host fingerprint. Every result is also appended, with its fingerprint, to
`.bench_run/results.jsonl` (or `--results FILE`) for `perfbench/compare.py`.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("meta_mix", "data_aged", "served_read")
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark and the daemon; False if either build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "simurgh-served", "--bin", "simurgh-served"],
    ]
    for cmd in steps:
        try:
            rc = subprocess.call(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return False
        if rc != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def source_digest():
    """Identifies the code under test: a digest of every source and manifest
    the two binaries are built from (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".json", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [
        os.path.join(target_dir(), "release", "simurgh-perfbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", "smoke" if smoke else "full",
        "--served-bin", os.path.join(target_dir(), "release", "simurgh-served"),
    ]
    # Own process group, so a timed-out run takes its daemon down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        out, rc = "", 124
        print(f"perfbench: {workload} timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return rc, out.splitlines()


def host_line(lines):
    for line in lines:
        if line.startswith("# host "):
            return json.loads(line[len("# host "):])
    return {}


def save(path, record):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def smoke():
    """Every workload at tiny scale, traced and untraced: each metric
    BENCHMARK.json names must be reported, finite, with its unit."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ok = True
    for workload in WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, lines = run_binary(workload, 1, 1, trace, smoke=True)
            res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            problems = []
            if rc != 0 or res is None or not res.get("correct"):
                problems.append(f"exit {rc}, correct={res and res.get('correct')}")
            metrics = (res or {}).get("metrics", {})
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{m['name']} missing")
                elif not math.isfinite(got["value"]) or got["unit"] != m["unit"]:
                    problems.append(f"{m['name']} = {got}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"unlisted metrics {sorted(extra)}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload:<12} trace {trace}: {len(metrics):>3} metrics  {status}")
            ok &= not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--results", default=os.path.join(ROOT, ".bench_run", "results.jsonl"))
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    if not build():
        return 1
    if args.smoke:
        return 0 if smoke() else 1
    seed = args.seed if args.seed is not None else load_json(os.path.join(HERE, "config.json"))["default_seed"]
    rc, lines = run_binary(args.workload, seed, args.seconds, args.trace)
    body, last = lines[:-1], lines[-1] if lines else ""
    for line in body:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        print(f"perfbench: {args.workload} printed no result (exit {rc})", file=sys.stderr)
        return rc or 1
    fingerprint = dict(host_line(lines), source=source_digest())
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    save(args.results, {"fingerprint": fingerprint, "workload": args.workload, "seed": seed,
                        "seconds": args.seconds, "trace": args.trace, "result": result})
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
