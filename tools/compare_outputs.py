"""Digest every benchmark command line's output, to compare two trees.

Usage, from anywhere:

    python3 tools/compare_outputs.py TREE VARIANT [VARIANT ...]

TREE is the root of an eqcert checkout.  For each workload of its
`perfbench/workloads.py` and each variant, the workload's inputs are
written to a fresh temporary directory and every command line is run, in
order, through that tree's `eqcert.cli.main` in this process.  One line is
printed per workload and variant: the count of command lines and a SHA-256
digest over every input file the workload wrote (its name and bytes: the
game files, grids and contest specs), then each command line's exit code,
stdout, stderr and `--json` output, the last with its top-level `run` key
(wall times) dropped.  So a change to how an input is built moves the
digest even where no command's output shows it.  The temporary
directory's path is replaced by a fixed name first, so two trees that
behave alike print the same lines.  Nothing in TREE is written.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def _digest(workloads, cli, workload: str, variant: int) -> tuple[int, str]:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.build(workload, variant, Path(tmp))
        for path in sorted(p for p in Path(tmp).iterdir() if p.is_file()):
            for part in (path.name.encode(), path.read_bytes()):
                digest.update(len(part).to_bytes(8, "big") + part)
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(op.argv))
            output = ""
            if op.output and Path(op.output).exists():
                parsed = json.loads(Path(op.output).read_text())
                if isinstance(parsed, dict):
                    parsed.pop("run", None)
                output = json.dumps(parsed)
            for part in (str(rc), out.getvalue(), err.getvalue(), output):
                text = part.replace(tmp, "<workdir>").encode()
                digest.update(len(text).to_bytes(8, "big") + text)
    return len(ops), digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="root of the eqcert checkout to run")
    parser.add_argument("variants", type=int, nargs="+", metavar="VARIANT")
    args = parser.parse_args(argv)
    root = args.tree.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from eqcert import cli
    for workload in workloads.WORKLOADS:
        for variant in args.variants:
            count, digest = _digest(workloads, cli, workload, variant)
            print(f"{workload} variant {variant}: {count} command lines, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
