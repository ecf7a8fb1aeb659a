"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REF --seeds 1 2 3 --pr N
        [--seconds S]

Run from anywhere inside a pcdl checkout. The parent is a git archive of
REF in a temporary directory; the change is a copy of the working tree's
files (tracked, or new and not ignored) in another, so both sides run
from a fresh directory whose path has the same length. For each seed
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
that were not correct.

    python3 tools/bench_pairs.py --parent REF --seeds 1 2 3 --pr N --cold

With --cold the pairs are cold runs instead: one pair per seed (the seed
only numbers it, as the runs have fixed inputs), each a pass over
COLD_RUNS on each side, the side run first alternating as above. Each
run is a fixed CLI call in a fresh interpreter, and its wall time is
divided by the mean of perfbench/run.py's reference loop timed just
before and just after it; this process and its children are pinned to
one CPU first, as perfbench/run.py pins itself. The results go under
the "cold" key of BENCH_<N>.json, with each run's medians, quartiles,
the number of pairs in which the change was faster and whether both
sides gave the same exit code and stdout; a warm run keeps that key, and
a cold run keeps the others. Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# runs a pcdl CLI call given as arguments in a fresh interpreter
CLI = "import sys\nfrom pcdl.cli import main\nsys.exit(main(sys.argv[1:]))"
# the posets that COLD_RUNS read, in pcdl's poset document form
COLD_INPUTS = {
    "fan1.json": {"elements": ["g", "t1"], "covers": [["g", "t1"]]},
    "fan2.json": {"elements": ["g", "t1", "t2"],
                  "covers": [["g", "t1"], ["g", "t2"]]},
    # a < b < d, a < c < e: the oracle refutes it at n = 3
    "refuted.json": {"elements": ["a", "b", "c", "d", "e"],
                     "covers": [["a", "b"], ["a", "c"], ["b", "d"],
                                ["c", "e"]]},
}
# name -> argv of the fixed CLI runs timed cold
COLD_RUNS = {
    "extensile-fan1": ["extensile", "--in", "fan1.json", "--n", "3",
                       "--bound", "7"],
    "extensile-fan2": ["extensile", "--in", "fan2.json", "--n", "3",
                       "--bound", "7"],
    "amalgam-refuted": ["amalgam", "--in", "refuted.json", "--n", "3",
                        "--oracle"],
    "q-model": ["q-model", "--N", "0", "--m", "1", "--verify", "all",
                "--bound", "7"],
    "catalog": ["catalog", "--max-points", "4", "--n", "3", "--oracle"],
}


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


def copy_tree(dest: Path) -> None:
    """Copy the working tree's files, tracked or new and not ignored."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        src = ROOT / name
        if src.is_file():   # a tracked file deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


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


def compare(parent: list, change: list, lower: bool) -> dict:
    """Both sides' runs of one metric, their medians and quartiles, and
    the number of pairs in which the change was better."""
    pm, cm = statistics.median(parent), statistics.median(change)
    q = quartiles(parent)
    return {
        "parent": parent,
        "change": change,
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "parent_quartiles": q,
        "change_quartiles": quartiles(change),
        "median_change_pct": round(100 * (cm - pm) / pm, 1) if pm else None,
        "median_gap_over_parent_iqr":
            round(abs(cm - pm) / (q[2] - q[0]), 2) if q[2] > q[0] else None,
        "change_better_in": sum((c < p) if lower else (c > p)
                                for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


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
        entry = compare([p["parent"]["metrics"][name] for p in pairs],
                        [p["change"]["metrics"][name] for p in pairs], lower)
        pm, cm = entry["parent_median"], entry["change_median"]
        out[name] = {"better": better, "bound": bound, **entry,
                     "worse_past_bound":
                         (cm - pm if lower else pm - cm) > bound * abs(pm)}
    out["requests"] = {
        side: {"attempted": sum(p[side]["attempted"] for p in pairs),
               "failed": sum(p[side]["failed"] for p in pairs),
               "incorrect_runs": sum(not p[side]["correct"] for p in pairs)}
        for side in ("parent", "change")}
    return out


def cold_pass(root: Path, reference_s) -> dict:
    """name -> (normalized time, exit code, sha256 of stdout) of one pass
    over COLD_RUNS, each in a fresh interpreter importing root's pcdl,
    with root, a temporary copy, as its working directory."""
    for name, poset in COLD_INPUTS.items():
        (root / name).write_text(json.dumps(poset))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = {}
    before = reference_s()
    for name, argv in COLD_RUNS.items():
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=root,
                              env=env, capture_output=True)
        elapsed = perf_counter() - t0
        if proc.returncode not in (0, 1):
            sys.exit("cold run %s failed in %s (exit %d): %s"
                     % (name, root, proc.returncode,
                        proc.stderr.decode()[-2000:]))
        after = reference_s()
        out[name] = (round(2 * elapsed / (before + after), 2),
                     proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
        before = after
    return out


def summarize_cold(pairs: list) -> dict:
    """Per run of COLD_RUNS: both sides' normalized times compared, and
    whether every pair gave the same exit code and stdout."""
    return {name: {**compare([p["parent"][name][0] for p in pairs],
                             [p["change"][name][0] for p in pairs], True),
                   "same_output": all(p["parent"][name][1:]
                                      == p["change"][name][1:]
                                      for p in pairs)}
            for name in COLD_RUNS}


def reference_loop():
    """perfbench/run.py's reference_s, with this process and the children
    it starts pinned to one CPU as perfbench/run.py pins itself."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    run.pin_to_one_cpu()
    return run.reference_s


def run_pairs(seeds: list, parent_sha: str, run_side, record) -> None:
    """One pair per seed, the side run first alternating, the parent first
    on the first seed. run_side(root, seed) runs one side from a fresh
    copy, and record(pairs) is called after every pair."""
    pairs = []
    with tempfile.TemporaryDirectory() as tmp, \
            tempfile.TemporaryDirectory() as tmp_change:
        parent_root, change_root = Path(tmp), Path(tmp_change)
        export(parent_sha, parent_root)
        copy_tree(change_root)
        for k, seed in enumerate(seeds):
            first = "parent" if k % 2 == 0 else "change"
            order = [("parent", parent_root), ("change", change_root)]
            if first == "change":
                order.reverse()
            pair = {"seed": seed, "first": first}
            for side, root in order:
                pair[side] = run_side(root, seed)
            pairs.append(pair)
            record(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pr", required=True,
                        help="names the output, BENCH_<pr>.json")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--cold", action="store_true",
                        help="time COLD_RUNS in fresh interpreters instead")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent_sha = git("rev-parse", args.parent)
    head = {
        "parent": parent_sha,
        "change": "working tree on " + git("rev-parse", "HEAD"),
        "machine": "%s, %s, Python %s" % (platform.machine(),
                                          platform.platform(),
                                          platform.python_version()),
    }
    out = ROOT / ("BENCH_%s.json" % args.pr)
    kept = json.loads(out.read_text()) if out.exists() else {}
    if args.cold:
        doc = {k: v for k, v in kept.items() if k != "cold"}
        section = doc["cold"] = {
            **head,
            "command": {name: "pcdl " + " ".join(argv)
                        for name, argv in COLD_RUNS.items()},
            "method": "One pair per seed; the side run first alternates, "
                      "the parent first on the first seed. Each run is a "
                      "fresh interpreter, its wall time divided by the "
                      "mean reference loop of perfbench/run.py timed just "
                      "before and after it, on one CPU. Runs are serial.",
        }
        reference_s = reference_loop()

        def run(root, seed):
            return cold_pass(root, reference_s)
        summary = summarize_cold
    else:
        section = doc = {
            **head,
            "command": "python3 perfbench/run.py --workload all --seed SEED "
                       "--seconds %g, from the root of each copy"
                       % args.seconds,
            "method": "One pair per seed; the side run first alternates, "
                      "the parent first on the first seed. Runs are serial.",
        }
        if "cold" in kept:
            doc["cold"] = kept["cold"]

        def run(root, seed):
            return run_side(root, seed, args.seconds)

        def summary(pairs):
            return summarize(pairs, metrics)

    def record(pairs):
        # rewritten after every pair, so a cut run keeps what it made
        section.update(summary=summary(pairs), pairs=pairs)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print("pair %d of %d written to %s" % (len(pairs), len(args.seeds),
                                               out), file=sys.stderr)

    run_pairs(args.seeds, parent_sha, run, record)
    if args.cold:
        return 0
    for name, entry in doc["summary"].items():
        if entry.get("worse_past_bound"):
            print("worse past its bound: %s median %g -> %g, bound %g%%"
                  % (name, entry["parent_median"], entry["change_median"],
                     100 * entry["bound"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
