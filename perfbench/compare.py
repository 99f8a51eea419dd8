#!/usr/bin/env python3
"""Summarises and compares saved benchmark results.

    python3 perfbench/compare.py spread RESULTS.jsonl
    python3 perfbench/compare.py diff OLD.jsonl NEW.jsonl

`run.py` appends one record per run to `.bench_run/results.jsonl` (or the
file given with `--results`). `spread` prints, per workload and end-to-end
metric, the median and the quartile spread (Q3 - Q1, as a share of the
median) over the untraced runs, beside the metric's bound in
BENCHMARK.json. `diff` puts two result sets side by side and flags any
median that got worse by more than the bound. Both refuse to mix results
whose host fingerprints (nproc, CPU model, clocksource, build profile)
differ: re-run the baseline on the current host instead.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu_model", "clocksource", "profile")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host(rec):
    return tuple(rec["fingerprint"].get(k) for k in HOST_KEYS)


def one_host(records, label):
    hosts = {host(r) for r in records}
    if len(hosts) > 1:
        sys.exit(f"{label}: results come from {len(hosts)} different hosts {sorted(hosts)}; refusing")
    return hosts.pop() if hosts else None


def table(records):
    """{(workload, metric): [values]} over untraced runs."""
    out = {}
    for r in records:
        if r["trace"] != 0:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def bounds():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    return {m["name"]: m for m in bench["end_to_end"]}


def cmd_spread(path):
    recs = load(path)
    one_host(recs, path)
    b = bounds()
    worst = 0.0
    for (w, name), vals in sorted(table(recs).items()):
        med, sp = spread(vals)
        bound = b.get(name, {}).get("bound", float("nan"))
        flag = "" if name == "setup_s" or sp <= bound / 3 else ("  > bound/3" if sp <= bound else "  > BOUND")
        if name != "setup_s":
            worst = max(worst, sp / bound if bound else 0)
        print(f"{w:<12} {name:<18} n={len(vals):<3} median {med:>14.4f}  spread {sp:6.3f}  bound {bound:5.2f}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


def cmd_diff(old_path, new_path):
    old, new = load(old_path), load(new_path)
    if one_host(old, old_path) != one_host(new, new_path):
        sys.exit("old and new results come from different hosts; re-run the baseline on this host")
    b = bounds()
    to, tn = table(old), table(new)
    worse = 0
    for key in sorted(set(to) & set(tn)):
        w, name = key
        mo, so = spread(to[key])
        mn, sn = spread(tn[key])
        m = b.get(name)
        change = (mn - mo) / abs(mo) if mo else 0.0
        verdict = ""
        if m:
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            if regress:
                verdict = "  WORSE than bound"
                worse += 1
            elif abs(change) <= max(so, sn):
                verdict = "  within spread"
        print(f"{w:<12} {name:<18} old {mo:>14.4f} (±{so:.3f})  new {mn:>14.4f} (±{sn:.3f})  {change:+7.3f}{verdict}")
    return 1 if worse else 0


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        cmd_spread(sys.argv[2])
        return 0
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        return cmd_diff(sys.argv[2], sys.argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
