"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REF --seeds 1 2 3 --pr N
        [--seconds S]

Run from anywhere inside a pcdl checkout. The parent is a git archive of
REF in a temporary directory; the change is the working tree. For each seed
one pair is run, `perfbench/run.py --workload all --seed SEED --seconds S`
on each side, one after the other: the parent first on the first seed, the
change first on the next, and so on. Each run's last stdout line is its
result. BENCH_<N>.json at the root of the checkout then holds every run,
and for each end-to-end metric of BENCHMARK.json and each workload the
runs of both sides, their medians and quartiles, the number of pairs in
which the change was better, the metric's bound, and worse_past_bound:
whether the change's median is worse than the parent's by more than bound
times the parent's median. Each such metric also gets one stderr line
when the runs are done. The "requests" entry gives, for each side, the
attempted and failed requests summed over the runs and the number of runs
that were not correct. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    """Write the files of commit ref into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:   # Python before 3.10.12 and 3.11.4
                tar.extractall(dest)


def run_side(root: Path, seed: int, seconds: float) -> dict:
    """One run's result line, with each metric reduced to its value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed in %s (exit %d): %s"
                 % (root, proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"]
                         for name, m in result["metrics"].items()}
    return result


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def summarize(pairs: list, metrics: dict) -> dict:
    """Per (workload, end-to-end metric) entries, then request counts.

    metrics maps each end-to-end metric of BENCHMARK.json to its entry
    there, which gives "better" and "bound".
    """
    names = sorted({m for p in pairs for m in p["parent"]["metrics"]})
    out = {}
    for name in names:
        metric = name.rsplit(".", 1)[1]
        if metric not in metrics:
            continue
        better, bound = metrics[metric]["better"], metrics[metric]["bound"]
        lower = better == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        pm, cm = statistics.median(parent), statistics.median(change)
        q = quartiles(parent)
        out[name] = {
            "better": better,
            "bound": bound,
            "parent": parent,
            "change": change,
            "parent_median": round(pm, 4),
            "change_median": round(cm, 4),
            "parent_quartiles": q,
            "change_quartiles": quartiles(change),
            "median_change_pct":
                round(100 * (cm - pm) / pm, 1) if pm else None,
            "median_gap_over_parent_iqr":
                round(abs(cm - pm) / (q[2] - q[0]), 2) if q[2] > q[0]
                else None,
            "change_better_in": sum((c < p) if lower else (c > p)
                                    for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "worse_past_bound":
                (cm - pm if lower else pm - cm) > bound * abs(pm),
        }
    out["requests"] = {
        side: {"attempted": sum(p[side]["attempted"] for p in pairs),
               "failed": sum(p[side]["failed"] for p in pairs),
               "incorrect_runs": sum(not p[side]["correct"] for p in pairs)}
        for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pr", required=True,
                        help="names the output, BENCH_<pr>.json")
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent_sha = git("rev-parse", args.parent)
    doc = {
        "parent": parent_sha,
        "change": "working tree on " + git("rev-parse", "HEAD"),
        "machine": "%s, %s, Python %s" % (platform.machine(),
                                          platform.platform(),
                                          platform.python_version()),
        "command": "python3 perfbench/run.py --workload all --seed SEED "
                   "--seconds %g, from the root of each copy" % args.seconds,
        "method": "One pair per seed; the side run first alternates, the "
                  "parent first on the first seed. Runs are serial.",
    }
    out = ROOT / ("BENCH_%s.json" % args.pr)
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = Path(tmp)
        export(parent_sha, parent_root)
        for k, seed in enumerate(args.seeds):
            first = "parent" if k % 2 == 0 else "change"
            order = [("parent", parent_root), ("change", ROOT)]
            if first == "change":
                order.reverse()
            pair = {"seed": seed, "first": first}
            for side, root in order:
                pair[side] = run_side(root, seed, args.seconds)
            pairs.append(pair)
            # rewritten after every pair, so a cut run keeps what it made
            doc["summary"] = summarize(pairs, metrics)
            doc["pairs"] = pairs
            out.write_text(json.dumps(doc, indent=2) + "\n")
            print("pair %d of %d written to %s"
                  % (k + 1, len(args.seeds), out), file=sys.stderr)
    for name, entry in doc["summary"].items():
        if entry.get("worse_past_bound"):
            print("worse past its bound: %s median %g -> %g, bound %g%%"
                  % (name, entry["parent_median"], entry["change_median"],
                     100 * entry["bound"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
