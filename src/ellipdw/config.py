"""Run configuration: parsing, validation, and seeded parameter draws.

Configs are plain structured text (YAML; JSON documents parse too).
Complex values are written as two-element [re, im] arrays; bare numbers are
real.  Defaults: tau = 1.0i, eta = 0.31, zeta = 0.17, lambda1 = 0.41,
lambda2 = -0.23, seed = 7.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .boundary import BoundaryConfig
from .elliptic import MIN_IM_TAU, ModularSetup, sigma
from .errors import DomainError, ParseError, SingularityError, ValidationError
from .oracle import (MAX_BRUTEFORCE_N, MAX_ENUMERATION_N, MAX_FACE_N,
                     SpectralConfig)
from .closedform import MAX_DETERMINANT_N, MAX_PERMSUM_N
from .rmatrices import _floor_checked

ROUTE_GUARDS = {
    "enumeration": MAX_ENUMERATION_N,
    "bruteforce": MAX_BRUTEFORCE_N,
    "face": MAX_FACE_N,
    "permsum": MAX_PERMSUM_N,
    "determinant": MAX_DETERMINANT_N,
}
MODES = ("compare", "identities", "bench")

DEFAULTS = {
    "mode": "compare",
    "N": 2,
    "seed": 7,
    "tau": 1.0j,
    "eta": 0.31,
    "zeta": 0.17,
    "lambda1": 0.41,
    "lambda2": -0.23,
    "tol": 1e-9,
    "output": "json",
    "series_tol": 1e-15,
    "n_max": 60,
}

DRAW_BOX = {"u_re": (0.08, 0.45), "u_im": (-0.12, 0.12),
            "xi_re": (-0.38, -0.05), "xi_im": (-0.12, 0.12)}
DRAW_TRIES = 200


@dataclass
class RunConfig:
    mode: str
    n: int
    seed: int
    setup: ModularSetup
    bc: BoundaryConfig
    routes: tuple
    output: str
    tol: float
    explicit_u: tuple = None
    explicit_xi: tuple = None
    n_sweep: tuple = field(default_factory=tuple)

    def params_echo(self) -> dict:
        return {
            "mode": self.mode, "N": self.n, "seed": self.seed,
            "tau": [complex(self.setup.tau).real, complex(self.setup.tau).imag],
            "eta": [complex(self.setup.eta).real, complex(self.setup.eta).imag],
            "zeta": [complex(self.bc.zeta).real, complex(self.bc.zeta).imag],
            "lambda1": [complex(self.bc.lambda1).real, complex(self.bc.lambda1).imag],
            "lambda2": [complex(self.bc.lambda2).real, complex(self.bc.lambda2).imag],
            "routes": list(self.routes), "tol": self.tol,
            "series_tol": self.setup.series_tol, "n_max": self.setup.n_max,
        }


def _is_integer(raw) -> bool:
    """YAML reads true/yes as bool, a subclass of int; a bool is no number."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _as_complex(raw, where: str) -> complex:
    if isinstance(raw, (int, float, complex)) and not isinstance(raw, bool):
        value = complex(raw)
    elif isinstance(raw, (list, tuple)) and len(raw) == 2 \
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        value = complex(raw[0], raw[1])
    else:
        raise ValidationError(f"{where}: expected a number or [re, im] pair, got {raw!r}")
    if not cmath.isfinite(value):
        raise ValidationError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _as_number(raw, where: str, kind=float):
    if isinstance(raw, bool):
        raise ValidationError(f"{where}: expected a number, got {raw!r}")
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{where}: expected a finite number, got {raw!r}")
    return value


def default_routes(n: int) -> tuple:
    return tuple(r for r in ("enumeration", "bruteforce", "face", "permsum",
                             "determinant") if n <= ROUTE_GUARDS[r])


def parse_config(text: str, overrides: dict = None) -> RunConfig:
    """Parse and validate a configuration document.

    ``overrides`` (command-line values) replace the document's fields before
    validation, so they pass the same checks.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"config parse failure: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ParseError(f"config must be a mapping, got {type(raw).__name__}")
    raw = {**raw, **(overrides or {})}
    known = {"mode", "N", "seed", "tau", "eta", "zeta", "lambda1", "lambda2",
             "routes", "output", "tol", "series_tol", "n_max", "u", "xi",
             "n_sweep"}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    merged = {**DEFAULTS, **raw}

    mode = merged["mode"]
    if mode not in MODES:
        raise ValidationError(f"mode {mode!r} not one of {MODES}")
    n = merged["N"]
    if not _is_integer(n) or n < 0:
        raise ValidationError(f"N must be a non-negative integer, got {n!r}")
    seed = merged["seed"]
    if not _is_integer(seed):
        raise ValidationError(f"seed must be an integer, got {seed!r}")

    tau = _as_complex(merged["tau"], "tau")
    if tau.imag < MIN_IM_TAU:
        raise ValidationError(f"Im(tau) below {MIN_IM_TAU}: {tau.imag}")
    try:
        setup = ModularSetup(tau=tau, eta=_as_complex(merged["eta"], "eta"),
                             series_tol=_as_number(merged["series_tol"], "series_tol"),
                             n_max=_as_number(merged["n_max"], "n_max", int))
    except DomainError as exc:
        raise ValidationError(str(exc)) from exc
    bc = BoundaryConfig(lambda1=_as_complex(merged["lambda1"], "lambda1"),
                        lambda2=_as_complex(merged["lambda2"], "lambda2"),
                        zeta=_as_complex(merged["zeta"], "zeta"))

    routes = merged.get("routes")
    if routes is None:
        routes = default_routes(n)
    else:
        if not isinstance(routes, (list, tuple)):
            raise ValidationError(f"routes must be a list, got {routes!r}")
        routes = tuple(routes)
        for r in routes:
            if not isinstance(r, str) or r not in ROUTE_GUARDS:
                raise ValidationError(f"unknown route {r!r}")
            if n > ROUTE_GUARDS[r]:
                raise ValidationError(f"{r} limited to N <= {ROUTE_GUARDS[r]}, got N={n}")

    tol = _as_number(merged["tol"], "tol")
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    output = merged["output"]
    if output not in ("json", "csv"):
        raise ValidationError(f"output must be json or csv, got {output!r}")

    def parse_points(key):
        if key not in raw:
            return None
        if not isinstance(raw[key], (list, tuple)):
            raise ValidationError(f"{key} must be a list, got {raw[key]!r}")
        pts = tuple(_as_complex(v, key) for v in raw[key])
        if len(pts) != n:
            raise ValidationError(f"{key} has {len(pts)} entries but N = {n}")
        return pts

    if ("u" in raw) != ("xi" in raw):
        raise ValidationError("u and xi must be given together")
    n_sweep = merged.get("n_sweep", ())
    if not isinstance(n_sweep, (list, tuple)) \
            or not all(_is_integer(v) and v >= 0 for v in n_sweep):
        raise ValidationError(
            f"n_sweep must be a list of non-negative integers, got {n_sweep!r}")
    return RunConfig(mode=mode, n=n, seed=seed, setup=setup, bc=bc,
                     routes=routes, output=output, tol=tol,
                     explicit_u=parse_points("u"), explicit_xi=parse_points("xi"),
                     n_sweep=tuple(n_sweep))


def draw_spectral(n: int, seed: int, setup: ModularSetup,
                  bc: BoundaryConfig) -> SpectralConfig:
    """Seeded rejection sampling of a generic spectral configuration."""
    box = DRAW_BOX
    rng = np.random.default_rng(seed)
    if n == 0:
        return SpectralConfig(u=(), xi=())
    for _ in range(DRAW_TRIES):
        u = tuple(rng.uniform(*box["u_re"], n) + 1j * rng.uniform(*box["u_im"], n))
        xi = tuple(rng.uniform(*box["xi_re"], n) + 1j * rng.uniform(*box["xi_im"], n))
        spectral = SpectralConfig(u=u, xi=xi)
        try:
            spectral.require_generic(setup)
            bc.require_spectral_compatible(setup, u)
            xi_arr = np.asarray(xi)
            for lam in (bc.lambda1, bc.lambda2):
                for z in (lam + bc.zeta - xi_arr, lam + bc.zeta + xi_arr):
                    _floor_checked(sigma(z, setup), "sigma(lambda_i + zeta -+ xi)")
        except SingularityError:
            continue
        return spectral
    raise SingularityError(f"no generic draw found in {DRAW_TRIES} tries")


def spectral_for(cfg: RunConfig) -> SpectralConfig:
    if cfg.explicit_u is not None:
        return SpectralConfig(u=cfg.explicit_u, xi=cfg.explicit_xi)
    return draw_spectral(cfg.n, cfg.seed, cfg.setup, cfg.bc)
