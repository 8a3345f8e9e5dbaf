"""Check operation outputs against the stored reference.

``alpha_hat``, ``alpha_hat_euclidean`` and ``sigma_min_Mh`` must agree to
``REL_TOL`` relative, and a refine loop must visit exactly the stored
meshes.  A mismatch or a raised exception fails the operation.  The
verdict is compared too, but a changed verdict is counted as a flip and
does not fail the operation: the verdict near C_T * E = 1 depends on
round-off (at N=140 it changes with the BLAS thread count), and the
benchmark reports that rather than hiding it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-8
CHECKED = ("alpha_hat", "alpha_hat_euclidean", "sigma_min_Mh")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Check:
    problems: list = field(default_factory=list)
    verdict_flips: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())["ops"]


def _close(got, want) -> bool:
    return got == want or (
        math.isfinite(got) and math.isfinite(want) and abs(got - want) <= REL_TOL * abs(want)
    )


def _check_certification(want: dict, got: dict, where: str, check: Check):
    for name in CHECKED:
        if not _close(got[name], want[name]):
            check.problems.append(f"{where}{name} = {got[name]!r}, reference {want[name]!r}")
    if got["accepted"] != want["accepted"]:
        check.verdict_flips += 1


def check(want: dict, outcome) -> Check:
    """Compare one operation's outcome (a record, or the exception it raised)."""
    result = Check()
    if isinstance(outcome, BaseException):
        result.problems.append(f"raised {type(outcome).__name__}: {outcome}")
        return result
    if "meshes" not in want:
        _check_certification(want, outcome, "", result)
        return result
    if outcome["meshes"] != want["meshes"]:
        got_n = [len(m) - 1 for m in outcome["meshes"]]
        want_n = [len(m) - 1 for m in want["meshes"]]
        result.problems.append(f"mesh sequence differs: intervals {got_n}, reference {want_n}")
    if len(outcome["rounds"]) != len(want["rounds"]):
        result.problems.append(
            f"{len(outcome['rounds'])} rounds, reference {len(want['rounds'])}"
        )
    for i, (w, g) in enumerate(zip(want["rounds"], outcome["rounds"])):
        _check_certification(w, g, f"round {i}: ", result)
    return result
