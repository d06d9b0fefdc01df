"""`tools/compare_outputs.py`, the digest that says two trees print alike.

The tool and `perfbench/workloads.py` are loaded by file path under private
names, as `test_bench_fingerprints.py` loads the perfbench modules, so their
bare names shadow no other module.  tullock-grid's 16 command lines run in
under a second.
"""

import importlib.util
import sys
from pathlib import Path

from eqcert import cli

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(f"_compare_outputs_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look a class's module up in sys.modules while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


compare_outputs = _load("tool", ROOT / "tools" / "compare_outputs.py")
workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")


class _OneMoreCharacter:
    """`cli` with one character added to the stdout of its first command line."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        rc = cli.main(argv)
        self.calls += 1
        if self.calls == 1:
            print("x", end="")
        return rc


class _OneByteOfTullock16:
    """`workloads` with one indenting space of tullock16.json made a tab.

    The game reads the same, so no command's output changes.
    """

    WORKLOADS = workloads.WORKLOADS

    def build(self, workload, variant, workdir):
        ops = workloads.build(workload, variant, workdir)
        path = workdir / "tullock16.json"
        data = path.read_bytes()
        changed = data.replace(b"\n ", b"\n\t", 1)
        assert len(changed) == len(data) and changed != data
        path.write_bytes(changed)
        return ops


def test_digest_repeats_across_temporary_directories():
    # Each call writes the inputs to its own temporary directory, whose path
    # the digest replaces by a fixed name.
    first = compare_outputs._digest(workloads, cli, "tullock-grid", 0)
    second = compare_outputs._digest(workloads, cli, "tullock-grid", 0)
    assert first == second
    assert first[0] == 16


def test_digest_moves_with_one_character_of_stdout():
    count, digest = compare_outputs._digest(workloads, cli, "tullock-grid", 0)
    changed = _OneMoreCharacter()
    changed_count, changed_digest = compare_outputs._digest(workloads, changed, "tullock-grid", 0)
    assert changed.calls == count == changed_count
    assert changed_digest != digest


def test_digest_moves_with_one_byte_of_an_input_file():
    digest = compare_outputs._digest(workloads, cli, "tullock-grid", 0)
    assert compare_outputs._digest(_OneByteOfTullock16(), cli, "tullock-grid", 0) != digest
