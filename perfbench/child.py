"""One cold run of a workload, in its own interpreter.

Started by run.py, never imported.  The program's caches start empty
because the process is new; nothing here clears them.  Prints one JSON
object as the last line of standard output:

  setup_s         import of clusterbrick until the inputs are built
  verify_s        certification of every instance, gate excluded
  instance_s      seconds per instance, keyed by type and default word
  peak_rss_mb     ru_maxrss when certification ends
  digest          sha256 of the canonical outputs of every instance run
  digests         the same, per instance, keyed like instance_s
  attempted, failed, and with --trace 1 the per-layer metrics

With --first-only the child sets up the whole workload but certifies only
its first instance, as a user's single `clusterbrick verify` would.

With --trace 1 the recorded spans are also written, at exit, to
.perfbench-spans/<workload>-seed<seed>.json in the checkout: a JSON list
of [name, start, end, parent index] with times in seconds from
time.perf_counter() and -1 for no parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class Gate:
    """Counts gate attempts and failures, naming each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: gate failed: {what}", file=sys.stderr)


def _run_instance(cb, inst, cartan, tmp: Path, gate: Gate) -> None:
    """Certify one instance and gate the program's own verdict."""
    word = inst.relabeled
    where = f"{inst.label} c={','.join(map(str, word))}"
    try:
        if inst.via_cli:
            out = tmp / f"{inst.label}-{'-'.join(map(str, word))}.json"
            code = cb.cli.main([
                "verify", "--type", inst.label,
                "--coxeter", ",".join(map(str, word)),
                "--checks", ",".join(inst.checks), "--emit-json", str(out)])
            reports = json.loads(out.read_text())["reports"]
            verdicts = [(r["name"], r["passed"]) for r in reports]
            gate.check(code == 0, f"{where}: cli exit code {code}")
        else:
            reports = cb.verify.run_checks(cartan, word, names=inst.checks)
            verdicts = [(r.name, r.passed) for r in reports]
    except Exception:
        traceback.print_exc()
        verdicts = []
    by_name = dict(verdicts)
    for name in inst.checks:
        gate.check(by_name.get(name) is True, f"{where}: check {name}")


def _outputs(cb, inst, cartan, gate: Gate) -> list:
    """Read the instance's results back through the public API, gate their
    counts, and return them in canonical form for the digest."""
    word = inst.relabeled
    where = f"{inst.label} c={','.join(map(str, word))}"
    try:
        corr = cb.verify.build_correspondence(cartan, word)
        by_root = cb.verify.variables_by_root(cartan, word)
        fpolys = [cb.cluster.f_polynomial(v, inst.rank)
                  for v in by_root.values()]
        bricks = [cb.subword.brick_vector(corr.complex_, facet, node.table)
                  for facet, node in corr.nodes.items()]
    except Exception:
        traceback.print_exc()
        gate.check(False, f"{where}: outputs unreadable")
        return [inst.label, list(inst.word), None, None]
    facets = workloads.FACETS[inst.label]
    roots = workloads.POSITIVE_ROOTS[inst.label]
    gate.check(len(corr.nodes) == facets,
               f"{where}: {len(corr.nodes)} facets, expected {facets}")
    gate.check(len(fpolys) == roots,
               f"{where}: {len(fpolys)} F-polynomials, expected {roots}")
    return workloads.canonical(inst, fpolys, bricks)


def _key(inst) -> str:
    return f"{inst.label} {inst.word}"


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import clusterbrick as cb
    import clusterbrick.cli  # noqa: F401  (binds cb.cli)
    if Path(cb.__file__).resolve().parent != SRC / "clusterbrick":
        print(f"perfbench: imported {cb.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    insts = workloads.instances(args.workload, args.seed, cb.cartan_of_type)
    cartans = {inst.label: cb.cartan_of_type(inst.family, inst.rank)
               for inst in insts}
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    for inst in insts:
        rows = cartans[inst.label].rows
        s = inst.sigma
        if any(rows[s[i] - 1][s[j] - 1] != rows[i][j]
               for i in range(inst.rank) for j in range(inst.rank)):
            raise ValueError(f"{s} is not an automorphism of {inst.label}")
    if args.first_only:
        insts = insts[:1]

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else lambda name: nullcontext()
    gate = Gate()
    times = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        with span("bench.workload"):
            for inst in insts:
                t = time.perf_counter()
                with span("bench.instance"):
                    _run_instance(cb, inst, cartans[inst.label], Path(tmp),
                                  gate)
                times[_key(inst)] = time.perf_counter() - t
        verify_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    outputs = {_key(inst): _outputs(cb, inst, cartans[inst.label], gate)
               for inst in insts}
    result = {"setup_s": setup_s, "verify_s": verify_s,
              "instance_s": times, "peak_rss_mb": rss_mb,
              "attempted": gate.attempted, "failed": gate.failed,
              "digest": _sha(sorted(outputs.values(), key=json.dumps)),
              "digests": {k: _sha(v) for k, v in outputs.items()}}
    if tracer:
        result["layers"] = tracer.metrics()
        out = ROOT / ".perfbench-spans"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
