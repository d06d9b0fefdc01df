"""Decision fingerprints: what a command decided, without its witnesses.

A fingerprint holds the exit code and the decisions a command reports: for
analyze, the maximin levels, the pure Nash equilibria, the singleton flag per
concept (with the point when there is one), certificate or refutation per
concept (with `a_star`), the unique-CCE classification variant and the two
GUE flags of each flagged profile; for certify, the same for one concept;
for contest, the check result; for simulate, the certified profile it
measured against.
Witnesses and timings are left out, since a change may pick other witnesses
that still verify.
"""

from __future__ import annotations

import json
from pathlib import Path

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def _certification(entry: dict) -> dict:
    out = {"type": entry["type"]}
    if entry["type"] == "certificate":
        out["a_star"] = entry["a_star"]
    return out


def fingerprint(op, rc: int) -> dict:
    """Fingerprint of one finished command; reads its JSON output, if any."""
    fp: dict = {"rc": rc}
    if op.output is None or rc not in (0, 1):
        return fp
    data = json.loads(Path(op.output).read_text(encoding="utf-8"))
    if op.kind == "analyze":
        # verify recomputes these three with the same code that wrote them,
        # so only the recorded values catch a change that breaks both alike.
        fp["maximin"] = data["maximin"]
        if "ne" in data:
            fp["pure_ne"] = data["ne"]["pure"]
        if "gue" in data:
            fp["gue"] = data["gue"]
        fp["concepts"] = {
            concept: ({"singleton": True, "point": entry["point"]} if entry["singleton"]
                      else {"singleton": False})
            for concept, entry in data.get("concepts", {}).items()}
        fp["certificates"] = {key: _certification(entry)
                              for key, entry in data.get("certificates", {}).items()}
        if "classification" in data:
            fp["classification"] = data["classification"]["variant"]
    elif op.kind == "certify":
        fp.update(_certification(
            {"type": "certificate" if "gamma" in data else "refutation", **data}))
    elif op.kind == "contest":
        fp["ok"] = data["ok"]
    elif op.kind == "simulate":
        fp["certificate_profile"] = data.get("certificate_profile")
    return fp


def expected_rc(op, fp: dict) -> int:
    """The exit code a command must give: certify 0 or 1 by its answer, others 0."""
    if op.kind == "certify":
        return 0 if fp.get("type") == "certificate" else 1
    return 0


def load_expected() -> dict:
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
