"""Cold-cache verification benchmark for clusterbrick.

    python3 perfbench/run.py --workload walk-e6 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each measurement is a fresh child
process (child.py), so the program's caches start empty, as they do for
every `clusterbrick verify` a user starts.  One child runs at a time: a
closed loop with a single client.  A run that is still going after
3 * --seconds + 30 seconds (a child far slower than the ones before it)
stops its child and exits with status 1, without metrics.

With --trace 0 the last line of standard output carries the end-to-end
metrics: setup_s, verify_s, max_instance_s and peak_rss_mb, each a median
over the run's children.  A few set-up-only children come first.  Children
that certify the whole workload follow, at least two, and more while one
as long as the longest so far still fits in the first half of --seconds.
The rest of --seconds goes to children that certify only the workload's
first instance, its slowest, while one more still fits.  max_instance_s is
the largest of the instances' median times; the first instance's median
takes in the children that ran it alone.

With --trace 1 each round runs one untraced and one traced whole-workload
child, while another round as long as the longest so far still fits in
--seconds; at least one runs.  The line carries the per-layer metrics, plus
the tracing overhead; a run in which a layer the workload should exercise
records nothing exits with status 1.

`attempted` counts checks and gate items; `failed` counts those that failed,
raised, or missed the gate, including a digest that differs from the one in
digests.json.  The fail ratio is failed / attempted.  Each traced child
writes the spans it recorded to .perfbench-spans/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CHECK_NAMES, METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5       # set-up-only children per run, besides the others

# Per-layer metrics that must be nonzero on each workload: the layers the
# workload exists to exercise.  A rename or refactor that silences one
# fails the traced run instead of reporting a zero.
EXPECTED = {
    "sweep-rank4": (
        "roots.weight_diff_calls", "roots.weight_diff_s",
        "coxeter.sorting_word_s", "coxeter.det_calls", "coxeter.det_s",
        "typea.tpaths", "typea.tpaths_s", "typea.prefixes_s",
        "verify.correspondence_s", "verify.checks_run",
        *(f"verify.check.{name}_s" for name in
          ("c-vectors", "g-vectors", "exchange", "lemmas", "typea"))),
    "polytope-rank5": (
        "roots.weight_diff_calls", "roots.weight_diff_s",
        "polytope.hull_calls", "polytope.hull_points", "polytope.hull_s",
        "polytope.box_points", "polytope.lattice_yield", "polytope.lattice_s",
        "polytope.minkowski_s", "polytope.minkowski_vertices",
        "cluster.fpoly_terms", "verify.correspondence_s", "verify.checks_run",
        *(f"verify.check.{name}_s" for name in
          ("newton", "lattice", "minkowski"))),
    "walk-e6": (
        "subword.facets", "subword.walk_s", "subword.table_vectors",
        "cluster.mutations", "cluster.seeds", "cluster.new_seed_ratio",
        "cluster.laurent_terms", "verify.correspondence_s",
        "verify.checks_run", "cli.self_s",
        *(f"verify.check.{name}_s" for name in
          ("c-vectors", "g-vectors", "exchange"))),
    "toy": ("verify.checks_run", "cli.self_s",
            *(f"verify.check.{name}_s" for name in CHECK_NAMES
              if name != "newton")),
}


class ChildFailed(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its result line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
            capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"child timed out after {err.timeout:.0f}s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + 3 * args.seconds + 30
    if not (ROOT / "src" / "clusterbrick" / "__init__.py").is_file():
        print(f"perfbench: no clusterbrick sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text())
    expected_digest = digests.get(args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    plain, traced, solo, setups = [], [], [], []
    try:
        # Untimed: the first import in a fresh checkout byte-compiles.
        _child(common + ["--setup-only"], deadline)
        started = time.monotonic()

        def elapsed():
            return time.monotonic() - started

        if args.trace:
            longest = 0.0
            while True:
                began = time.monotonic()
                plain.append(_child(common + ["--trace", "0"], deadline))
                traced.append(_child(common + ["--trace", "1"], deadline))
                longest = max(longest, time.monotonic() - began)
                if elapsed() + longest > args.seconds:
                    break
        else:
            startup = 0.0
            for _ in range(SETUP_SAMPLES):
                began = time.monotonic()
                setups.append(
                    _child(common + ["--setup-only"], deadline)["setup_s"])
                startup = max(startup, time.monotonic() - began)
            longest = 0.0
            while len(plain) < 2 or elapsed() + longest <= args.seconds / 2:
                began = time.monotonic()
                plain.append(_child(common + ["--trace", "0"], deadline))
                longest = max(longest, time.monotonic() - began)
            first = next(iter(plain[0]["instance_s"]))
            longest = startup + max(r["instance_s"][first] for r in plain)
            while elapsed() + longest <= args.seconds:
                began = time.monotonic()
                solo.append(_child(common + ["--first-only"], deadline))
                longest = max(longest, time.monotonic() - began)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    children = plain + traced + solo
    attempted = sum(r["attempted"] for r in children) + len(children)
    failed = sum(r["failed"] for r in children)
    for r in plain + traced:
        if r["digest"] != expected_digest:
            failed += 1
            print(f"perfbench: digest {r['digest']} differs from the recorded "
                  f"{expected_digest} for {args.workload}", file=sys.stderr)
    for r in solo:
        if r["digests"] != {first: plain[0]["digests"][first]}:
            failed += 1
            print(f"perfbench: {first} alone gave other outputs than within "
                  f"the whole workload", file=sys.stderr)

    def median(key, runs=plain):
        return statistics.median(r[key] for r in runs)

    if args.trace:
        metrics = {}
        for name, unit in METRICS:
            if not name.startswith("trace."):
                metrics[name] = _metric(statistics.median(
                    r["layers"][name] for r in traced), unit)
        traced_s = median("verify_s", traced)
        metrics["trace.verify_s"] = _metric(traced_s, "s")
        metrics["trace.overhead_s"] = _metric(
            traced_s - median("verify_s"), "s")
        silent = [name for name in EXPECTED[args.workload]
                  if not metrics[name]["value"]]
        if silent:
            print(f"perfbench: no work recorded on {args.workload} for "
                  f"{', '.join(silent)}", file=sys.stderr)
            return 1
    else:
        samples = {}
        for r in plain + solo:
            for key, seconds in r["instance_s"].items():
                samples.setdefault(key, []).append(seconds)
        slowest = max(statistics.median(v) for v in samples.values())
        metrics = {
            "setup_s": _metric(statistics.median(
                setups + [r["setup_s"] for r in plain + solo]), "s"),
            "verify_s": _metric(median("verify_s"), "s"),
            "max_instance_s": _metric(slowest, "s"),
            "peak_rss_mb": _metric(median("peak_rss_mb"), "MB"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
