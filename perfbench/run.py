"""Run one pcdl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a pcdl checkout; pcdl is imported from its src/.
Every request is a pcdl CLI call made in this process through
pcdl.cli.main with --jobs 1, timed alone, and then checked. With --trace 0
the requests cycle in order until --seconds have passed, each at least
once; wall_s sums the median time of each request, and wall_norm does the
same with each time divided by that of a fixed reference loop timed next
to it and, every TICK_S, while it runs, which cancels the drift in
machine speed. setup_s is the median over fresh interpreters of the time
to import pcdl, write the inputs and warm the class enumeration, each
divided by the reference loop timed around it and given in seconds at
REFERENCE_S. The process and its children run on one CPU, so that the
reference loop runs where the work it is compared with ran. With
--trace 1 the untraced measurement is followed by set-up and one pass
under the tracer, and the per-layer metrics of tracing.py are reported.

The last line of stdout is the result object; the line before it records
what was measured (machine, Python, commit, seed, request digest).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
# reference_s() on an unloaded CPU of the 2-core VM the bounds were set on:
# setup_s is given in seconds at that speed
REFERENCE_S = 0.008
FILE_FLAGS = {"--in", "--from", "--to", "--out"}
END_TO_END = {"wall_norm": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def import_pcdl():
    """pcdl from this checkout's src/, never from anywhere else."""
    if not (SRC / "pcdl" / "__init__.py").is_file():
        sys.exit("error: no pcdl sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pcdl.cli
    import pcdl.enumeration
    if Path(pcdl.__file__).resolve().parent != SRC / "pcdl":
        sys.exit("error: pcdl was imported from %s" % pcdl.__file__)
    return pcdl


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU.

    On a VM each virtual CPU changes speed on its own, by half within
    seconds, so a reference loop timed on another CPU says little about
    the speed the work ran at.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def set_up(workload, seed: int, workdir: Path):
    """Import pcdl, write the inputs and warm the class enumeration."""
    pcdl = import_pcdl()
    files, requests = workload.build(random.Random(seed))
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in files.items():
        (workdir / name).write_text(json.dumps(doc))
    pcdl.enumeration.poset_classes_upto(workload.max_bound)
    return pcdl, files, requests


def median_setup_s(name: str, seed: int) -> float:
    """Median time from a fresh interpreter to ready, over SETUP_SAMPLES.

    Each sample is divided by the reference loop timed just before and
    just after it, as in measure(), and scaled by REFERENCE_S.
    """
    cmd = [sys.executable, __file__, "--setup-only", "--workload", name,
           "--seed", str(seed), "--seconds", "0"]
    times = []
    before = reference_s()
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            sys.exit("error: set-up failed in a fresh interpreter")
        after = reference_s()
        times.append(2 * elapsed / (before + after))
        before = after
    return statistics.median(times) * REFERENCE_S


class Outcome(NamedTuple):
    elapsed: float
    output: str = ""
    summary: object = None
    error: str = None


def attempt(cli, request, workdir: Path, ticker=None) -> Outcome:
    """Time one CLI request, then check what it wrote.

    A SpeedTicker, if given, samples the machine's speed during the call.
    """
    argv = list(request.argv)
    for k in range(1, len(argv)):
        if argv[k - 1] in FILE_FLAGS:
            argv[k] = str(workdir / argv[k])
    argv += ["--jobs", "1"]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                ticker or contextlib.nullcontext():
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:
        return Outcome(perf_counter() - t0, error="raised %r" % (e,))
    elapsed = perf_counter() - t0
    try:
        if "--out" in argv:
            output = Path(argv[argv.index("--out") + 1]).read_text()
        else:
            output = stdout.getvalue()
        summary = request.check(code, output)
    except (CheckFailed, OSError, KeyError, TypeError, ValueError) as e:
        return Outcome(elapsed, error="exit %r, %s: %s; stderr %r"
                       % (code, type(e).__name__, e, stderr.getvalue()))
    return Outcome(elapsed, output, summary)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, request, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            print("FAILED pcdl %s: %s" % (" ".join(request.argv),
                                          outcome.error), file=sys.stderr)
        return outcome


def one_pass(cli, requests, workdir, tally):
    return [tally.add(r, attempt(cli, r, workdir)) for r in requests]


REFERENCE_LOOPS = 30000
TICK_LOOPS = 2000      # one speed sample: a short run of the reference loop
TICK_S = 0.05          # wall time between speed samples within a request


def _loop(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x ^ (i * 2654435761)) & 0xffffffff
        x = (x >> 3) | ((x & 7) << 29)
    return x


def reference_s() -> float:
    """Median of three timings of a fixed pure-Python loop of a few ms.

    Timed between requests it tracks the speed of the machine, which on a
    shared host drifts by tens of percent within minutes.
    """
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _loop(REFERENCE_LOOPS)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedTicker:
    """Samples the machine's speed while a request runs.

    A virtual CPU can switch between a fast and a slow state several times
    within one request of a few seconds. While the ticker is entered, a
    SIGALRM handler, which runs in this thread and so on this CPU, times
    TICK_LOOPS rounds of the reference loop every TICK_S of wall time;
    samples are kept in units of the whole reference loop.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _loop(TICK_LOOPS)
        self.samples.append((perf_counter() - t0)
                            * REFERENCE_LOOPS / TICK_LOOPS)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def measure(cli, requests, workdir, seconds, tally) -> tuple:
    """Cycle the requests for seconds, each at least once.

    Returns (wall_s, wall_norm): the sums over the list of each request's
    median time, in seconds and in units of the reference loop. A
    request's time in those units is its time multiplied by the mean
    speed (inverse reference time) of the reference loop timed just
    before and just after it and of the ticker's samples taken while it
    ran.
    """
    raw = [[] for _ in requests]
    norm = [[] for _ in requests]
    ticker = SpeedTicker()
    start = perf_counter()
    before = reference_s()
    k = 0
    while k < len(requests) or perf_counter() - start < seconds:
        i = k % len(requests)
        first = len(ticker.samples)
        elapsed = tally.add(requests[i], attempt(
            cli, requests[i], workdir, ticker)).elapsed
        after = reference_s()
        refs = [before, *ticker.samples[first:], after]
        raw[i].append(elapsed)
        norm[i].append(elapsed * statistics.fmean(1 / r for r in refs))
        before = after
        k += 1
    return (sum(statistics.median(s) for s in raw),
            sum(statistics.median(s) for s in norm))


def trace_run(pcdl, workload, requests, workdir, seconds, tally) -> dict:
    """Measure untraced, then set up and run one pass under the tracer."""
    from tracing import Tracer
    untraced, _ = measure(pcdl.cli, requests, workdir, seconds, tally)
    pcdl.enumeration.poset_classes_exactly.cache_clear()
    pcdl.enumeration.poset_classes_upto.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        pcdl.enumeration.poset_classes_upto(workload.max_bound)
        outcomes = one_pass(pcdl.cli, requests, workdir, tally)
    finally:
        tracer.uninstall()
    reported = sum(json.loads(o.output)["oracle_instances"]
                   for r, o in zip(requests, outcomes)
                   if "--oracle" in r.argv and o.error is None)
    return tracer.metrics(untraced, sum(o.elapsed for o in outcomes),
                          reported, sum(len(o.output) for o in outcomes))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pcdl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    """The checkout's commit, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError):
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True,
                              text=True).stdout.strip() or None
    return None


def request_digest(files, requests) -> str:
    doc = {"files": files, "argv": [list(r.argv) for r in requests]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    workdir = WORK / ("%s-%d" % (workload.name, os.getpid()))
    try:
        if args.setup_only:
            set_up(workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        import_pcdl()
        pin_to_one_cpu()
        setup_s = None if args.trace else median_setup_s(workload.name,
                                                         args.seed)
        pcdl, files, requests = set_up(workload, args.seed, workdir)
        tally = Tally()
        if args.trace:
            metrics = trace_run(pcdl, workload, requests, workdir,
                                args.seconds, tally)
        else:
            wall, wall_norm = measure(pcdl.cli, requests, workdir,
                                      args.seconds, tally)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in (("wall_norm", wall_norm),
                                           ("setup_s", setup_s),
                                           ("peak_rss_mb", rss))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if not args.trace:
        print("  %-44s %14.6g %s" % ("wall_s", wall, "s"))
    for name, m in metrics.items():
        mark = "*" if name in workload.moves else " "
        print("%s %-44s %14.6g %s" % (mark, name, m["value"], m["unit"]))
    if args.trace:
        lifts = metrics["amalgamation.find_lift.calls"]["value"]
        reported = metrics["amalgamation.oracle_instances"]["value"]
        if lifts > reported:
            print("  %d find_lift calls behind %d reported oracle instances: "
                  "the serial path runs every class task before it looks for "
                  "a witness, and max_instances is applied after them too"
                  % (lifts, reported))
    print("  %-44s %14.6g %s  (%d of %d requests)"
          % ("failed_frac", tally.failed / tally.attempted, "ratio",
             tally.failed, tally.attempted))
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "git_commit": git_commit(), "source_digest": source_digest(),
              "requests": len(requests),
              "request_digest": request_digest(files, requests)}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("error: workload %s exited with %d"
                     % (name, proc.returncode))
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
