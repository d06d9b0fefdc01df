"""Record the expected decision fingerprints of every benchmark input.

Usage, from the root of the repository:

    python3 perfbench/record.py [--workload NAME ...]

Runs each command line of every variant once and writes `fingerprints.json`.
Re-record only at a commit whose decisions are known to be right: the
benchmark counts any later difference as a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import ROOT


def record(workload: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from eqcert import cli

    fingerprints: dict = {}
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for variant in range(1 if workload in workloads.UNSEEDED else workloads.POOL):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for op in workloads.build(workload, variant, Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(list(op.argv))
                fp = checks.fingerprint(op, rc)
                if rc != checks.expected_rc(op, fp):
                    raise SystemExit(f"{workload}/{op.key}: unexpected exit code {rc}")
                if fingerprints.setdefault(op.key, fp) != fp:
                    raise SystemExit(f"{workload}/{op.key}: decisions depend on the variant")
    return fingerprints


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    existing = checks.load_expected() if checks.FINGERPRINTS.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        existing[workload] = record(workload)
        print(f"{workload}: {len(existing[workload])} fingerprints", flush=True)
    checks.FINGERPRINTS.write_text(_format(existing), encoding="utf-8")


def _format(fingerprints: dict) -> str:
    """JSON with one line per fingerprint, so that a re-recording diffs well."""
    blocks = []
    for workload, entries in sorted(fingerprints.items()):
        lines = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(fp, sort_keys=True, separators=(',', ':'))}"
            for key, fp in sorted(entries.items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
