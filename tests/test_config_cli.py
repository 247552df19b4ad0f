"""Configuration parsing, report schema, CLI subcommands, exit codes."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import ellipdw

from ellipdw import (SpectralConfig, closedform, elliptic, oracle, parse_config, run_bench,
                     run_compare, run_identities, runner)
from ellipdw.cli import main
from ellipdw.config import DRAW_BOX, ROUTE_GUARDS, default_routes
from ellipdw.errors import ParseError, SizeError, ValidationError
from ellipdw.report import value_digest


def test_minimal_document_fills_defaults():
    cfg = parse_config("{mode: compare, N: 2, seed: 7}")
    assert cfg.mode == "compare"
    assert cfg.n == 2
    assert cfg.seed == 7
    assert complex(cfg.setup.tau) == 1j
    assert complex(cfg.setup.eta) == 0.31
    assert complex(cfg.bc.zeta) == 0.17
    assert complex(cfg.bc.lambda1) == 0.41
    assert complex(cfg.bc.lambda2) == -0.23
    assert cfg.tol == 1e-9


def test_complex_fields_as_pairs():
    cfg = parse_config("tau: [0.1, 0.9]\neta: [0.3, 0.1]\n")
    assert complex(cfg.setup.tau) == 0.1 + 0.9j
    assert complex(cfg.setup.eta) == 0.3 + 0.1j


def test_tau_guard():
    with pytest.raises(ValidationError, match="Im\\(tau\\)"):
        parse_config("tau: [0, 0.01]")


def test_route_guard():
    with pytest.raises(ValidationError, match="permsum"):
        parse_config("{routes: [permsum], N: 12}")


# every public entry point of each route
_ROUTE_ENTRIES = {
    "enumeration": [oracle.partition_enumeration],
    "bruteforce": [oracle.partition_bruteforce],
    "face": [oracle.partition_face_route],
    "permsum": [lambda s, b, t: closedform.full_z(s, b, t, "permsum"),
                closedform.normalized_z_permsum],
    "determinant": [lambda s, b, t: closedform.full_z(s, b, t, "determinant"),
                    closedform.normalized_z_determinant,
                    closedform._log_normalized_z_determinant],
}


@pytest.mark.parametrize("route,guard", list(ROUTE_GUARDS.items()))
def test_every_route_refuses_one_past_its_guard(route, guard, bc, setup):
    """At N = guard + 1 (points from the draw box, unchecked) every entry
    point of the route raises the one SizeError, parse_config refuses the
    route with the same message, and default_routes drops it."""
    n = guard + 1
    rng = np.random.default_rng(n)
    u, xi = (tuple(rng.uniform(*DRAW_BOX[f"{v}_re"], n) + 1j * rng.uniform(*DRAW_BOX[f"{v}_im"], n))
             for v in ("u", "xi"))
    message = f"^{re.escape(f'{route} route limited to N <= {guard}, got {n}')}$"
    for entry in _ROUTE_ENTRIES[route]:
        with pytest.raises(SizeError, match=message):
            entry(SpectralConfig(u=u, xi=xi), bc, setup)
    with pytest.raises(ValidationError, match=message):
        parse_config(f"{{N: {n}, routes: [{route}]}}")
    assert route in default_routes(guard)
    assert route not in default_routes(n)


def test_unknown_field_and_parse_error():
    with pytest.raises(ValidationError, match="unknown config fields"):
        parse_config("nonsense: 3")
    with pytest.raises(ParseError):
        parse_config("mode: [unbalanced")
    with pytest.raises(ParseError):
        parse_config("- just\n- a list\n")


# one exponent literal without a dot per numeric field: YAML 1.2 floats
EXPONENT_FIELDS = [
    ("tau", "tau: [0, 9e-1]", lambda c: c.setup.tau, 0.9j),
    ("eta", "eta: 1e-1", lambda c: c.setup.eta, 0.1),
    ("zeta", "zeta: [2E-1, -5e-2]", lambda c: c.bc.zeta, 0.2 - 0.05j),
    ("lambda1", "lambda1: +4e-1", lambda c: c.bc.lambda1, 0.4),
    ("lambda2", "lambda2: -3e-1", lambda c: c.bc.lambda2, -0.3),
    ("u", "{N: 2, u: [[0.2, 5e-2], 3e-1], xi: [[-0.2, 0.01], [-0.1, -0.03]]}",
     lambda c: c.explicit_u, (0.2 + 0.05j, 0.3)),
    ("xi", "{N: 2, u: [0.2, 0.3], xi: [[-2e-1, 1e-2], -1.e-1]}",
     lambda c: c.explicit_xi, (-0.2 + 0.01j, -0.1)),
    ("tol", "tol: 1e-9", lambda c: c.tol, 1e-9),
]


@pytest.mark.parametrize("field,text,get,want", EXPONENT_FIELDS,
                         ids=[row[0] for row in EXPONENT_FIELDS])
def test_exponent_literals_are_numbers(field, text, get, want):
    """PyYAML follows YAML 1.1, which reads 1e-1 as a string; the config
    loader reads YAML 1.2's float form in every numeric field."""
    assert get(parse_config(text)) == want


@pytest.mark.parametrize("text,match", [
    ("eta: 1e999", "finite"), ("tol: 1e999", "finite"), ("lambda1: -1e999", "finite"),
    ("{N: 1, u: [[1e999, 0]], xi: [0.1]}", "finite"), ("eta: e-1", "expected a number"),
    ("tol: 1e-", "expected a number"), ("zeta: [1e-1, true]", "expected a number"),
    ("N: 2e0", "non-negative integer"), ("seed: 7e0", "non-negative integer")])
def test_exponent_literals_keep_the_rejections(text, match):
    """Overflowing exponents are non-finite, and words, bools and
    non-integer sizes stay configuration errors."""
    with pytest.raises(ValidationError, match=match):
        parse_config(text)


def test_explicit_spectral_points():
    cfg = parse_config("N: 2\nu: [[0.2, 0.05], [0.3, -0.02]]\n"
                       "xi: [[-0.2, 0.01], [-0.1, -0.03]]\n")
    assert cfg.explicit_u == (0.2 + 0.05j, 0.3 - 0.02j)
    with pytest.raises(ValidationError, match="entries"):
        parse_config("N: 3\nu: [[0.2, 0.05]]\nxi: [[0.1, 0]]")


def test_run_compare_report_schema():
    cfg = parse_config("{mode: compare, N: 2, seed: 7}")
    report = run_compare(cfg)
    payload = json.loads(report.to_json())
    assert set(payload) == {"params", "routes", "residuals", "pass"}
    for route in cfg.routes:
        entry = payload["routes"][route]
        assert entry["status"] == "ok"
        assert len(entry["value"]) == 2
        assert entry["seconds"] >= 0
    assert payload["pass"] is True
    assert all(v <= 1e-9 for v in payload["residuals"].values())


def test_run_compare_csv_rows():
    cfg = parse_config("{mode: compare, N: 1, seed: 3, routes: [bruteforce, determinant]}")
    report = run_compare(cfg)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "route,value_re,value_im,seconds,status"
    assert len(lines) == 3


def test_run_compare_degenerate_boundary_errors():
    """lambda12 tuned onto a sigma zero: lattice-shift routes error out."""
    cfg = parse_config("{N: 2, lambda1: 0.5, lambda2: [0.5, -1.0], tau: [0, 1],"
                       " routes: [bruteforce, face]}")
    # lambda12 = 1j = tau: sigma(lambda12 - tau) = 0 exactly
    report = run_compare(cfg)
    statuses = [r.status for r in report.routes.values()]
    assert any("SingularityError" in s for s in statuses)
    assert report.passed is False


@pytest.mark.parametrize("lambda2,refusing", [
    (0.10, {"enumeration", "bruteforce", "face", "permsum", "determinant"}),
    (0.72, {"enumeration", "bruteforce", "face"}),
], ids=["lambda12=eta", "lambda12=-eta"])
def test_lattice_zero_is_refused_under_one_name(lambda2, refusing):
    """lambda1 = 0.41, zeta = 0.17, eta = 0.31, N = 2.  lambda12 = eta puts
    the zero sigma(0) at k = -1 of sigma(lambda12 + k eta), which the closed
    forms' lambda product reads too, so every route refuses; lambda12 = -eta
    puts it at k = 1, which only the oracles' sweep |k| <= 2N+2 reaches, so
    the closed forms return values.  Every refusal names the one family: the
    enumeration's too, since it runs the sweep before its intertwiner
    inversion, which would refuse both zeros as a near-singular matrix."""
    cfg = parse_config(f"{{N: 2, lambda1: 0.41, zeta: 0.17, lambda2: {lambda2},"
                       " routes: [enumeration, bruteforce, face, permsum, determinant]}")
    report = run_compare(cfg)
    assert report.passed is False
    for route, result in report.routes.items():
        if route in refusing:
            assert result.status.startswith("error: SingularityError"), route
            assert "sigma(lambda12 + k eta)" in result.status, route
        else:
            assert result.status == "ok" and abs(result.value) > 0, route


def test_run_compare_singular_determinant_is_an_error_row():
    """xi_a = -xi_b makes two columns of the determinant's matrix equal: the
    route refuses by naming the pair family, before its LU, so the report
    gets an error row (under warnings-as-errors, no RuntimeWarning escapes)."""
    report = run_compare(parse_config("{N: 2, u: [0.2, 0.3], xi: [-0.1, 0.1]}"))
    status = report.routes["determinant"].status
    assert status.startswith("error: SingularityError") and "sigma(xi_a + xi_b)" in status
    assert report.routes["permsum"].status == "ok"
    assert report.passed is False


def test_cli_reports_the_subcommand_as_mode(capsys):
    for argv in (["identities"], ["bench", "--n-sweep", "8"]):
        main(argv)
        assert json.loads(capsys.readouterr().out)["params"]["mode"] == argv[0]


def test_run_identities_passes():
    cfg = parse_config("{mode: identities, seed: 7}")
    result = run_identities(cfg)
    assert result["pass"] is True
    assert [c["name"] for c in result["checks"]] == [
        "riemann_identity", "sigma_oddness", "sigma_period_1", "sigma_period_tau", "qybe",
        "dynamical_ybe", "sos_unitarity", "crossing", "reflection_equation", "face_vertex",
        "k_factorization", "intertwiner_det_constancy", "dual_biorthogonality",
        "twist_triangularity", "twist_factorizing", "extremal_invariance", "twisted_creation",
        "oracle_enum_vs_bruteforce", "oracle_face_vs_bruteforce", "permsum_vs_determinant",
        "closed_form_vs_oracle", "recursion", "pole_pair_equality", "pole_scan_regularity",
        "difference_quasi_period"]


def test_run_compare_determinant_only_large_n():
    """One-route compare at large N: single value, timing, exit-0 semantics
    while |Z| stays in the double range (N = 40, |Z| about 10^203); at N = 64
    |Z| is about 10^563, so the one row is an error naming the overflow.

    lambda1 is detuned from the default: 0.41 puts lambda12 on the eta-shift
    lattice of sigma zeros at shift 44 (0.64 - 44*0.31 = -13), which makes the
    full partition function genuinely singular for N >= 45.
    """
    cfg = parse_config("{N: 40, routes: [determinant], lambda1: 0.4137}")
    report = run_compare(cfg)
    assert report.passed is True
    entry = report.routes["determinant"]
    assert entry.status == "ok"
    assert entry.seconds >= 0
    assert report.residuals == {}
    report = run_compare(parse_config("{N: 64, routes: [determinant], lambda1: 0.4137}"))
    assert report.passed is False
    assert report.routes["determinant"].status.endswith("overflows the double range")


def test_cli_identities_json(tmp_path, capsys):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("{mode: identities, seed: 7}")
    assert main(["identities", "--config", str(cfg_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert all(c["pass"] is True for c in payload["checks"])


def test_run_compare_determinant_odd_beyond_oracles():
    """Odd N past every oracle guard needs no oracle."""
    report = run_compare(parse_config("{N: 13, routes: [determinant]}"))
    assert report.passed is True
    assert report.routes["determinant"].status == "ok"


def test_run_identities_seed_sweep():
    """No seed-sensitive failures across ten seeds."""
    for seed in range(1, 11):
        result = run_identities(parse_config(f"{{mode: identities, seed: {seed}}}"))
        assert result["pass"], [c["name"] for c in result["checks"] if not c["pass"]]


def test_run_bench_rows_and_guard_skip():
    cfg = parse_config("{mode: bench, routes: [enumeration, determinant],"
                       " n_sweep: [2, 4]}")
    result = run_bench(cfg)
    by_key = {(r["route"], r["N"]): r for r in result["rows"]}
    assert by_key[("enumeration", 4)]["status"].startswith("skipped")
    assert by_key[("determinant", 4)]["status"] == "ok"
    assert result["pass"] is True


def test_run_bench_releases_each_row_before_the_next_draw(monkeypatch):
    """With the cycle collector off, every earlier row's configuration, grids
    included, is gone when a row draws, so a sweep holds one configuration
    at a time."""
    drawn, draw = [], runner.draw_spectral

    def recording(*args):
        assert [ref() for ref in drawn] == [None] * len(drawn)
        spectral = draw(*args)
        drawn.append(weakref.ref(spectral))
        return spectral

    monkeypatch.setattr(runner, "draw_spectral", recording)
    cfg = parse_config("{mode: bench, routes: [determinant, permsum], n_sweep: [6, 8, 6]}")
    gc.disable()
    try:
        result = run_bench(cfg)
    finally:
        gc.enable()
    assert len(drawn) == 6 and result["pass"]


_NO_SCIPY = textwrap.dedent("""
    import sys

    class Watch:
        seen = []

        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                self.seen.append(name)
            return None

    sys.meta_path.insert(0, Watch())
    from ellipdw import parse_config, run_bench, run_compare, run_identities

    assert run_identities(parse_config("{mode: identities}"))["pass"]
    report = run_compare(parse_config(
        "{N: 2, routes: [enumeration, bruteforce, face, permsum, determinant]}"))
    assert [r.status for r in report.routes.values()] == ["ok"] * 5
    rows = run_bench(parse_config(
        "{mode: bench, routes: [determinant, permsum], n_sweep: [4, 16]}"))["rows"]
    assert len(rows) == 4
    loaded = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
    assert not Watch.seen and not loaded, (Watch.seen, loaded)
""")


def test_runs_never_load_scipy():
    """A fresh interpreter imports the package and runs identities, compare
    with all five routes and bench without ever importing scipy, so its
    import cost is paid neither at import nor at the first operation."""
    src = str(Path(ellipdw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_value_digest_forms():
    assert value_digest(1.0 + 0j) == "(1.000000000+0.000000000j)e+0"
    big = value_digest(log_mag=4000.0, phase=0.0)
    assert big.endswith("e+1737")


def test_cli_compare_exit_codes(tmp_path, capsys):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text("{mode: compare, N: 2, seed: 7}")
    assert main(["compare", "--config", str(cfg_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True

    bad = tmp_path / "bad.yaml"
    bad.write_text("tau: [0, 0.01]")
    assert main(["compare", "--config", str(bad)]) == 2

    # Command-line overrides pass the same validation as the document.
    assert main(["bench", "--n-sweep", "8,x"]) == 2
    assert main(["bench", "--n-sweep", "-3"]) == 2
    assert main(["compare", "--route", "nonsense"]) == 2
    assert main(["compare", "--tol", "-1"]) == 2
    assert main(["compare", "--seed", "-1"]) == 2
    assert main(["compare", "--route", "face", "--route", "face"]) == 2
    bad_sweep = tmp_path / "bad_sweep.yaml"
    bad_sweep.write_text("{mode: bench, n_sweep: [a]}")
    assert main(["bench", "--config", str(bad_sweep)]) == 2

    # A run with no route to run is refused, not reported as a pass.
    for command, text in (("compare", "{N: 600}"), ("compare", "{routes: []}"),
                          ("bench", "{routes: [], n_sweep: [8]}")):
        bad.write_text(text)
        assert main([command, "--config", str(bad)]) == 2, text

    # Malformed field types are configuration errors, not tracebacks.
    for text in ("tol: abc", "routes: [[a]]", "u: 5", "routes: 5", "seed: -1",
                 "{N: 2, routes: [face, face]}"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad)]) == 2, text

    # The series tolerance and term cap are fixed, not config fields.
    for text in ("series_tol: 1.0e-15", "n_max: 60"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad)]) == 2, text
        assert "unknown config fields" in capsys.readouterr().err

    # Non-finite numbers are refused before any route runs.
    for text in ("tol: .nan", "zeta: .nan", "eta: [.nan, 0]", "tau: [0, .inf]",
                 "lambda1: .inf"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad)]) == 2, text

    # YAML booleans are not numbers, and explicit points come as a pair.
    for text in ("N: true", "N: yes", "seed: true", "tol: true", "eta: true",
                 "zeta: [true, 0]", "n_sweep: [true]", "{N: 2, u: [[0.2, 0.05], [0.3, -0.02]]}",
                 "{N: 2, xi: [[-0.2, 0.0], [-0.1, 0.03]]}"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad)]) == 2, text


def test_cli_non_utf8_config_is_a_config_error(tmp_path, capsys):
    """A document that is not UTF-8 is refused with exit 2, not a traceback."""
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xff\xfe{N: 2}")
    for command in ("compare", "identities", "bench"):
        assert main([command, "--config", str(bad)]) == 2, command
        assert capsys.readouterr().err.startswith("config error: ")


def test_cli_unconverged_series_is_a_failed_report(tmp_path, capsys, monkeypatch):
    """A theta series that cannot converge within the term cap fails the
    report (exit 1) in every command, with the error in the report, not a
    traceback."""
    monkeypatch.setattr(elliptic, "N_MAX", 3)
    cfg_file = tmp_path / "tight.yaml"
    cfg_file.write_text("{tau: [0, 0.06]}")
    assert main(["bench", "--n-sweep", "8", "--config", str(cfg_file)]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    errors = [r["status"] for r in rows if not r["status"].startswith("skipped")]
    assert errors and all(e.startswith("error: theta[0.5;0.5] series not converged")
                          for e in errors)
    assert main(["identities", "--config", str(cfg_file)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False and payload["checks"] == []
    assert payload["error"].startswith("ConvergenceError: theta[0.5;0.5] series not converged")
    assert main(["compare", "--config", str(cfg_file)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["routes"]["draw"]["status"].startswith("error: ")


def test_cli_compare_overflowing_value_is_an_error_row(tmp_path, capsys):
    """A closed-form value past the double range (the determinant saturates
    to a phased inf at N = 16, Im tau = 0.05) is an error row naming the
    overflow: the report fails (exit 1) and stays strict JSON."""
    cfg_file = tmp_path / "overflow.yaml"
    cfg_file.write_text("{N: 16, tau: [0, 0.05], routes: [determinant]}")
    assert main(["compare", "--config", str(cfg_file)]) == 1
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    entry = payload["routes"]["determinant"]
    assert entry["value"] is None
    assert "overflows the double range" in entry["status"]
    assert entry["status"].startswith("error: ")
    assert payload["pass"] is False
    report = run_compare(parse_config("{N: 2}"))
    report.routes["determinant"].value = complex(math.inf, 0.0)
    with pytest.raises(ValueError):
        report.to_json()


def test_cli_single_route_determinant(capsys):
    assert main(["compare", "--route", "determinant", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["routes"]) == ["determinant"]
    assert payload["residuals"] == {}


def test_cli_bench_requires_sweep(capsys):
    assert main(["bench"]) == 2


def test_cli_bench_csv(capsys):
    assert main(["bench", "--n-sweep", "2,3", "--route", "bruteforce",
                 "--output", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "route,N,seconds,digest,status"
    assert len(out.strip().splitlines()) == 3
