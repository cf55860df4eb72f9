"""The names and call shapes that perfbench/tracer.py relies on.

The tracer wraps package functions by module and attribute name and calls
`run_checks` positionally, so a rename or signature change in the package
would silently break traced benchmark runs; these tests catch it instead.
The tracer file is loaded by path and only read.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from clusterbrick.roots import cartan_of_type
from clusterbrick.subword import RootTable
from clusterbrick.verify import run_checks

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    for _, module, attr in _load_tracer().TARGETS:
        owner = importlib.import_module(f"clusterbrick.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_root_table_is_a_dataclass():
    assert dataclasses.is_dataclass(RootTable)


def test_run_checks_takes_jobs_positionally():
    reports = run_checks(cartan_of_type("A", 2), (1, 2), ("c-vectors",), 1)
    assert [(r.name, r.passed) for r in reports] == [("c-vectors", True)]
