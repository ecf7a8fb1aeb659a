"""One sha256 over everything the pcdl CLI answers to the benchmark's requests.

    python3 tools/cli_digest.py [--root CHECKOUT] [--seeds 1 2]
        [--workloads NAME ...]

Builds the request lists of the workloads in perfbench/workloads.py (all
four unless --workloads names some) for each seed, writes their inputs to
a temporary directory and runs every request in-process through
pcdl.cli.main with --jobs 1, as the benchmark does. The algebra requests
run a second time with --format text; a request that writes --out keeps
the JSON format there, since the next request reads its file. Each answer
is its argv, exit code, stdout, stderr and --out file, with the temporary
directory's path replaced by a fixed name. One line per (workload, seed,
format) gives its request count and digest; the last line is the digest
of them all. pcdl and the workloads are imported from CHECKOUT (default:
the checkout holding this script), so two checkouts can be compared
without copying the script. Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

FILE_FLAGS = {"--in", "--from", "--to", "--out"}


def run_request(cli, argv: list, workdir: Path) -> list:
    """[argv, code, stdout, stderr, --out text] of one in-process call."""
    full = list(argv)
    for k in range(1, len(full)):
        if full[k - 1] in FILE_FLAGS:
            full[k] = str(workdir / full[k])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(full + ["--jobs", "1"])
        except SystemExit as e:
            code = e.code
    out_text = None
    if "--out" in full:
        out_text = Path(full[full.index("--out") + 1]).read_text()
    answer = [argv, code, stdout.getvalue(), stderr.getvalue(), out_text]
    return json.loads(json.dumps(answer).replace(str(workdir), "WORK"))


def digest_runs(root: Path, seeds: list, names=None):
    """Yields (workload, seed, format, requests, sha256 hex) per run.

    names picks workloads, in the order of WORKLOADS; None runs them all.
    """
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import pcdl.cli
    from workloads import WORKLOADS
    if Path(pcdl.__file__).resolve().parent != (root / "src" / "pcdl"):
        sys.exit("error: pcdl was imported from %s" % pcdl.__file__)
    unknown = sorted(set(names or ()) - set(WORKLOADS))
    if unknown:
        sys.exit("error: no workload named %s" % ", ".join(unknown))
    for name, workload in WORKLOADS.items():
        if names is not None and name not in names:
            continue
        formats = ("json", "text") if name == "algebra" else ("json",)
        for seed in seeds:
            for fmt in formats:
                files, requests = workload.build(random.Random(seed))
                sha = hashlib.sha256()
                with tempfile.TemporaryDirectory() as tmp:
                    workdir = Path(tmp)
                    for fname, doc in files.items():
                        (workdir / fname).write_text(json.dumps(doc))
                    for request in requests:
                        argv = list(request.argv)
                        if fmt == "text" and "--out" not in argv:
                            argv += ["--format", "text"]
                        answer = run_request(pcdl.cli, argv, workdir)
                        sha.update(json.dumps(answer).encode() + b"\n")
                yield name, seed, fmt, len(requests), sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="pcdl checkout to run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="workloads to run (default: all four)")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    calls = 0
    for name, seed, fmt, count, hexdigest in digest_runs(
            args.root.resolve(), args.seeds, args.workloads):
        print("%-14s seed %d %-4s %4d requests %s"
              % (name, seed, fmt, count, hexdigest))
        total.update(hexdigest.encode())
        calls += count
    print("%d calls, digest %s" % (calls, total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
