#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark declared in BENCHMARK.json.

    python3 scripts/ab_pairs.py --parent <rev> --change <rev> \
        [--pairs N] [--seconds S] [--seed-base N] [--workloads a,b,...] [--quick]
        [--workdir DIR]

Each revision is exported with `git archive` into `<workdir>/<commit>/` (by
default `.ab_pairs/` at the repository root; an existing export is reused) and
built with BENCHMARK.json's `command`. Then, per workload, N pairs are run:
pair i runs both sides on seed `seed-base + i`, and the side that starts
alternates from pair to pair. Every run is BENCHMARK.json's command with
`--workload <w> --seed <n> --seconds <s> --trace 0`, executed from the root of
its export.

For each workload and end-to-end metric the table gives both sides' medians
with quartiles, change/parent as a ratio of medians with the parent's median
as its base, the pairs the change won (ties count for neither side), and a
verdict:

  gain        the change won at least 9 of every 10 pairs and the medians
              differ by more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread, (q3 - q1) / median, exceeds the bound and
              not every change run is better than every parent run;
  ok          none of these.

Each workload also gets an ungated `nvcsw/op` row: voluntary context switches
of the run's process tree (the `RUSAGE_CHILDREN` `ru_nvcsw` delta around the
run) divided by the operations it attempted, with each side's median,
quartiles and maximum run. It shows scheduler wake-up traffic, including a
pool that started in a slow mode of many more switches per operation.

Quartiles are Python's `statistics.quantiles(values, n=4)`. `--quick` shrinks
every workload and defaults the window to one second: a smoke test of the
tool, not a measurement. Only committed revisions can be compared.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def build_command(command):
    """BENCHMARK.json's `cargo run ... --` as the equivalent `cargo build`."""
    if "run" not in command:
        return None
    cut = command.index("--") if "--" in command else len(command)
    return [("build" if a == "run" else a) for a in command[:cut]]


def export(rev, command, workdir):
    """Exports and builds `rev` under `workdir`; returns the export's root."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = workdir / commit
    if not (tree / "BENCHMARK.json").exists():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(
            ["git", "archive", commit], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    build = build_command(command)
    if build:
        print(f"building {rev} ({commit[:12]}) in {tree}", file=sys.stderr)
        subprocess.run(build, cwd=tree, check=True)
    return tree


def run_once(tree, command, workload, seed, seconds, quick):
    """One benchmark run; returns its result object (the last stdout line)
    and the voluntary context switches of the run's process tree."""
    args = [*command, "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds), "--trace", "0"]
    if quick:
        args.append("--quick")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nvcsw
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    switches = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nvcsw - before
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} in {tree}: no result line")
    return result, switches


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    m = statistics.median(values)
    return 0.0 if m == 0 else (q3 - q1) / abs(m)


def verdict(parent, change, lower_is_better, bound, wins):
    mp, mc = statistics.median(parent), statistics.median(change)
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    q1, q3 = quartiles(parent)
    if 10 * wins >= 9 * len(parent) and better(mc, mp) and abs(mc - mp) > q3 - q1:
        return "gain"
    worse = (mc - mp) if lower_is_better else (mp - mc)
    if worse > bound * abs(mp):
        return "regressed"
    every_run_better = all(better(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    return "ok"


def cell(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", required=True, help="change revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="window per run")
    ap.add_argument("--seed-base", type=int, default=1001)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--workdir", type=Path, default=ROOT / ".ab_pairs")
    args = ap.parse_args()
    seconds = args.seconds or (1.0 if args.quick else spec["run_seconds"])
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        ap.error(f"unknown workloads {unknown}; BENCHMARK.json has {names}")

    command = spec["command"]
    trees = {
        "parent": export(args.parent, command, args.workdir.resolve()),
        "change": export(args.change, command, args.workdir.resolve()),
    }
    metrics = spec["end_to_end"]
    rows, broken = [], False
    for w in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in trees}
        counts = {side: [0, 0] for side in trees}
        nvcsw = {side: [] for side in trees}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                r, switches = run_once(trees[side], command, w, seed, seconds, args.quick)
                broken |= not r["correct"]
                nvcsw[side].append(switches / max(r["attempted"], 1))
                counts[side][0] += r["attempted"]
                counts[side][1] += r["failed"]
                for m in metrics:
                    values[side][m["name"]].append(r["metrics"][m["name"]]["value"])
            print(f"{w} pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        for m in metrics:
            p, c = values["parent"][m["name"]], values["change"][m["name"]]
            lower = m["better"] == "lower"
            wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
            mp = statistics.median(p)
            ratio = f"{statistics.median(c) / mp:.3f} of {mp:.4g} {m['unit']}" if mp else "n/a"
            rows.append(
                (w, m["name"], cell(p), cell(c), ratio, f"{wins}/{len(p)}",
                 verdict(p, c, lower, m["bound"], wins))
            )
        p, c = nvcsw["parent"], nvcsw["change"]
        mp = statistics.median(p)
        ratio = f"{statistics.median(c) / mp:.3f} of {mp:.4g}" if mp else "n/a"
        rows.append((w, "nvcsw/op", f"{cell(p)} max {max(p):.4g}",
                     f"{cell(c)} max {max(c):.4g}", ratio, "", ""))
        (pa, pf), (ca, cf) = counts["parent"], counts["change"]
        rows.append((w, "failed", f"{pf} of {pa}", f"{cf} of {ca}", "", "",
                     "regressed" if cf * max(pa, 1) > pf * max(ca, 1) else "ok"))

    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "change/parent", "won", "verdict")
    widths = [max(len(str(r[k])) for r in [header, *rows]) for k in range(len(header))]
    for r in [header, *rows]:
        print("  ".join(str(v).ljust(widths[k]) for k, v in enumerate(r)).rstrip())
    print(f"\n{args.pairs} pairs per workload, {seconds:g} s windows, seeds "
          f"{args.seed_base}-{args.seed_base + args.pairs - 1}; bounds from BENCHMARK.json")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
