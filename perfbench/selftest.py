"""Check that the workload seed changes only the presentation of inputs.

Runs each workload's request list once under each of two seeds and
asserts that the generated inputs differ, that every check passes, and
that the label-free summaries (exit codes, verdicts, pinned counts) are
identical. It also checks that BENCHMARK.json names the metrics run.py
and tracing.py report, and counts the up-sets behind the lattice sizes
pinned in ALGEBRA_SPECS.

    python3 perfbench/selftest.py

All four workloads take about a minute per seed on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run
import workloads
from tracing import PER_LAYER
from workloads import WORKLOADS

SEEDS = (1, 2)


def one_seed(workload, seed: int):
    workdir = run.WORK / ("selftest-%s-%d" % (workload.name, os.getpid()))
    try:
        pcdl, files, requests = run.set_up(workload, seed, workdir)
        tally = run.Tally()
        outcomes = run.one_pass(pcdl.cli, requests, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    return (run.request_digest(files, requests), tally.failed,
            [o.summary for o in outcomes])


def declared_metrics_problems() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    for w in WORKLOADS.values():
        unknown = set(w.moves) - {name for name, _ in PER_LAYER}
        if unknown:
            problems.append("%s moves undeclared metrics %s"
                            % (w.name, sorted(unknown)))
    return problems


def pinned_size_problems() -> list:
    """The algebra lattice sizes pinned in ALGEBRA_SPECS, by brute force."""
    posets, _ = workloads.algebra_shapes()
    problems = []
    for k, ((shape, _), (_, _, size)) in enumerate(
            zip(posets, workloads.ALGEBRA_SPECS)):
        count = workloads.upset_count(workloads.up_masks(*shape))
        if count != size:
            problems.append("shape %d has %d up-sets, pinned %d"
                            % (k, count, size))
    return problems


def main() -> int:
    failed = 0
    for problem in declared_metrics_problems():
        print("BENCHMARK.json: %s" % problem)
        failed += 1
    for problem in pinned_size_problems():
        print("ALGEBRA_SPECS: %s" % problem)
        failed += 1
    for workload in WORKLOADS.values():
        (d1, f1, s1), (d2, f2, s2) = (one_seed(workload, seed)
                                      for seed in SEEDS)
        problems = []
        if d1 == d2:
            problems.append("both seeds gave the same inputs")
        if f1 or f2:
            problems.append("%d and %d requests failed their checks"
                            % (f1, f2))
        differ = [k for k, (a, b) in enumerate(zip(s1, s2)) if a != b]
        if differ:
            problems.append("answers differ at requests %s" % differ)
        print("%s: %s" % (workload.name, "; ".join(problems)
                          or "ok, %d requests agree" % len(s1)))
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
