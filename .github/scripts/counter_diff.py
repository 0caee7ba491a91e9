#!/usr/bin/env python3
"""Exact work counters of the benchmark of record, compared across runs.

  counter_diff.py collect DIR [WORKLOAD...]
      Run `bash benchmark/run.sh --workload W --seed 1 --seconds 2 --trace 1`
      for each workload (default: every one BENCHMARK.json names) and keep
      the result line, its last line of stdout, as DIR/W.json.
  counter_diff.py diff BASE_DIR HEAD_DIR CHANGES_DIFF
      Print every exact metric that differs between the two directories,
      and fail unless each one is named on a line that CHANGES_DIFF (the
      output of `git diff <merge-base> -- CHANGES.md`) adds.

The exact metrics are those with unit count, bytes or ratio, except the
ones benchmark/metrics.ml does not mark exact: pool.steals,
trace.overhead_ratio and the *.self_share timing shares. Run from the root
of the repository.
"""

import json
import os
import subprocess
import sys

NOT_EXACT = {"pool.steals", "trace.overhead_ratio"}


def exact(path):
    with open(path) as f:
        metrics = json.load(f)["metrics"]
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] in ("count", "bytes", "ratio")
        and name not in NOT_EXACT
        and not name.endswith(".self_share")
    }


def collect(out_dir, workloads):
    if not workloads:
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    os.makedirs(out_dir, exist_ok=True)
    for w in workloads:
        out = subprocess.run(
            ["bash", "benchmark/run.sh", "--workload", w, "--seed", "1", "--seconds", "2", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        with open(os.path.join(out_dir, w + ".json"), "w") as f:
            f.write(out.strip().splitlines()[-1] + "\n")
        print(f"{w}: {len(exact(os.path.join(out_dir, w + '.json')))} exact metrics")


def moved(base, head):
    """(workload, metric, base value, head value) for every difference."""
    out = []
    for w in sorted(set(base) | set(head)):
        if w not in base or w not in head:
            out.append((w, w, "reported" if w in base else None, "reported" if w in head else None))
            continue
        for name in sorted(set(base[w]) | set(head[w])):
            a, b = base[w].get(name), head[w].get(name)
            if a != b:
                out.append((w, name, a, b))
    return out


def load_dir(d):
    return {f[: -len(".json")]: exact(os.path.join(d, f)) for f in os.listdir(d) if f.endswith(".json")}


def diff(base_dir, head_dir, changes_diff):
    with open(changes_diff) as f:
        added = "\n".join(l for l in f.read().splitlines() if l.startswith("+") and not l.startswith("+++"))
    base, head = load_dir(base_dir), load_dir(head_dir)
    checked = sum(len(m) for m in head.values())
    moves, unexplained = moved(base, head), []
    for w, name, a, b in moves:
        named = name in added
        print(f"{w:18} {name:32} {a} -> {b}{'' if named else '   (not named in CHANGES.md)'}")
        if not named:
            unexplained.append(name)
    if unexplained:
        sys.exit(f"FAIL: exact metrics moved that CHANGES.md does not name: {sorted(set(unexplained))}")
    print(f"{len(moves)} of {checked} exact metrics over {len(head)} workloads moved; CHANGES.md names each")


if __name__ == "__main__":
    cmd, args = sys.argv[1], sys.argv[2:]
    if cmd == "collect":
        collect(args[0], args[1:])
    elif cmd == "diff":
        diff(*args)
    else:
        sys.exit(f"unknown command {cmd!r}: want collect or diff")
