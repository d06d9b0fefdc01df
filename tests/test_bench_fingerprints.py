"""The benchmark's decision fingerprints, replayed as a test.

For each workload of `perfbench/workloads.py`, variant 0's inputs are built
into a temporary directory and each command line runs once through
`eqcert.cli.main`: the untimed commands first, whose outputs later commands
read, then the timed ones, as a benchmark run orders them.  Every exit code
and every decision fingerprint (`perfbench/checks.py`) must equal the one
recorded in `perfbench/fingerprints.json`.  The two modules are loaded by
file path under private names, so their bare names shadow no other module,
and nothing under `perfbench/` is written.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from eqcert import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look a class's module up in sys.modules while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_variant_0_decisions_equal_recorded_fingerprints(workload, tmp_path):
    expected = checks.load_expected()[workload]
    ops = workloads.build(workload, 0, tmp_path)
    assert ops
    mismatches = []
    for op in [op for op in ops if not op.timed] + [op for op in ops if op.timed]:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
        fp = checks.fingerprint(op, rc)
        if rc != checks.expected_rc(op, fp) or fp != expected.get(op.key):
            mismatches.append((op.key, fp, expected.get(op.key)))
    assert mismatches == []
