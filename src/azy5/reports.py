"""Structured verification reports.

A report is a list of named checks, each carrying its residual, tolerance,
and PASS/FAIL verdict, plus command-specific payload data.  Serialization
is deterministic: keys are sorted, complex numbers become [re, im] pairs,
and wall-clock timings never enter the JSON (they are printed to stdout
only), so a fixed configuration produces byte-identical report files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def verdict(self):
        return "PASS" if self.residual <= self.tolerance else "FAIL"

    def row(self):
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def jsonable(x):
    """Recursively convert payload values: complex -> [re, im], tuples ->
    lists, mappings with non-string keys -> sorted string keys."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if hasattr(x, "item") and not isinstance(x, (str, bytes)):
        # numpy scalar
        return jsonable(x.item())
    return x


@dataclass
class EvalReport:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add_check(self, name, residual, tolerance):
        r = CheckResult(name, float(residual), float(tolerance))
        self.checks.append(r)
        return r

    @property
    def verdict(self):
        return "PASS" if all(c.verdict == "PASS" for c in self.checks) else "FAIL"

    def to_dict(self):
        return {
            "command": self.command,
            "config": jsonable(self.config),
            "checks": [c.row() for c in self.checks],
            "payload": jsonable(self.payload),
            "verdict": self.verdict,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def summary_lines(self):
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            yield f"{c.name.ljust(width)}  residual {c.residual:.3e}  tol {c.tolerance:.1e}  {c.verdict}"
        yield f"overall: {self.verdict}"
