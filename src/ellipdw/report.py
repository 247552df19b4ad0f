"""Report containers for route comparisons and benchmark runs."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field


def value_digest(value=None, log_mag: float = None, phase: float = None) -> str:
    """Mantissa/exponent digest with 10 significant digits.

    Accepts either a complex value or a (log_mag, phase) pair (natural log),
    so out-of-range magnitudes still digest to a finite string.
    """
    if value is not None:
        if value == 0:
            return "(0+0j)e+0"
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return "overflow"
        log_mag = math.log(abs(value))
        phase = cmath.phase(value)
    if not math.isfinite(log_mag):
        return "overflow"
    e10 = math.floor(log_mag / math.log(10.0))
    mant = cmath.exp(log_mag - e10 * math.log(10.0) + 1j * phase)
    return f"({mant.real:.9f}{mant.imag:+.9f}j)e{e10:+d}"


@dataclass
class RouteResult:
    """One route's value, wall time, and status."""

    value: complex = None
    seconds: float = 0.0
    status: str = "ok"
    digest: str = ""

    def as_dict(self):
        out = {
            "value": None if self.value is None else [self.value.real, self.value.imag],
            "seconds": self.seconds,
            "status": self.status,
        }
        if self.digest:
            out["digest"] = self.digest
        return out


@dataclass
class PartitionReport:
    """Per-route values, pairwise residuals, timings, parameter echo."""

    params: dict
    routes: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    passed: bool = True

    @staticmethod
    def pair_residual(za: complex, zb: complex) -> float:
        return abs(za - zb) / max(abs(za), abs(zb), 1e-300)

    def fill_residuals(self, tol: float):
        values = {name: r.value for name, r in self.routes.items()
                  if r.status == "ok" and r.value is not None}
        names = sorted(values)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.residuals[f"{a}/{b}"] = self.pair_residual(values[a], values[b])
        any_error = any(r.status != "ok" for r in self.routes.values())
        self.passed = (not any_error
                       and all(v <= tol for v in self.residuals.values()))

    def to_json(self) -> str:
        return json.dumps({
            "params": self.params,
            "routes": {name: r.as_dict() for name, r in self.routes.items()},
            "residuals": self.residuals,
            "pass": self.passed,
        }, indent=2, default=str, allow_nan=False)

    def to_csv(self) -> str:
        lines = ["route,value_re,value_im,seconds,status"]
        for name, r in sorted(self.routes.items()):
            re_s = "" if r.value is None else f"{r.value.real:.17g}"
            im_s = "" if r.value is None else f"{r.value.imag:.17g}"
            lines.append(f"{name},{re_s},{im_s},{r.seconds:.6f},{r.status}")
        return "\n".join(lines) + "\n"
