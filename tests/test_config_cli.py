"""Configuration parsing, report schema, CLI subcommands, exit codes."""

import json

import pytest

from ellipdw import parse_config, run_bench, run_compare, run_identities
from ellipdw.cli import main
from ellipdw.errors import ParseError, ValidationError
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


def test_unknown_field_and_parse_error():
    with pytest.raises(ValidationError, match="unknown config fields"):
        parse_config("nonsense: 3")
    with pytest.raises(ParseError):
        parse_config("mode: [unbalanced")
    with pytest.raises(ParseError):
        parse_config("- just\n- a list\n")


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


def test_run_identities_passes():
    cfg = parse_config("{mode: identities, seed: 7}")
    result = run_identities(cfg)
    assert result["pass"] is True
    names = {c["name"] for c in result["checks"]}
    assert {"riemann_identity", "qybe", "reflection_equation", "crossing",
            "face_vertex", "k_factorization", "twisted_creation",
            "recursion"} <= names


def test_run_compare_determinant_only_large_n():
    """One-route compare at N = 64: single value, timing, exit-0 semantics.

    lambda1 is detuned from the default: 0.41 puts lambda12 on the eta-shift
    lattice of sigma zeros at shift 44 (0.64 - 44*0.31 = -13), which makes the
    full partition function genuinely singular for N >= 45.
    """
    cfg = parse_config("{N: 64, routes: [determinant], lambda1: 0.4137}")
    report = run_compare(cfg)
    assert report.passed is True
    entry = report.routes["determinant"]
    assert entry.status == "ok"
    assert entry.seconds >= 0
    assert report.residuals == {}


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
    bad_sweep = tmp_path / "bad_sweep.yaml"
    bad_sweep.write_text("{mode: bench, n_sweep: [a]}")
    assert main(["bench", "--config", str(bad_sweep)]) == 2

    # A run with no route to run is refused, not reported as a pass.
    for command, text in (("compare", "{N: 600}"), ("compare", "{routes: []}"),
                          ("bench", "{routes: [], n_sweep: [8]}")):
        bad.write_text(text)
        assert main([command, "--config", str(bad)]) == 2, text

    # Malformed field types are configuration errors, not tracebacks.
    for text in ("tol: abc", "series_tol: abc", "n_max: abc", "routes: [[a]]",
                 "u: 5", "routes: 5", "n_max: 0", "series_tol: 1"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad)]) == 2, text

    # Non-finite numbers are refused before any route runs.
    for text in ("tol: .nan", "zeta: .nan", "eta: [.nan, 0]", "tau: [0, .inf]",
                 "lambda1: .inf", "n_max: .inf"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad)]) == 2, text

    # YAML booleans are not numbers, and explicit points come as a pair.
    for text in ("N: true", "N: yes", "seed: true", "tol: true", "eta: true",
                 "zeta: [true, 0]", "series_tol: true", "n_max: true",
                 "n_sweep: [true]", "{N: 2, u: [[0.2, 0.05], [0.3, -0.02]]}",
                 "{N: 2, xi: [[-0.2, 0.0], [-0.1, 0.03]]}"):
        bad.write_text(text)
        assert main(["compare", "--config", str(bad)]) == 2, text


def test_cli_unconverged_series_is_a_failed_report(tmp_path, capsys):
    """A theta series that cannot converge within n_max fails the report
    (exit 1) in every command, with the error in the report, not a
    traceback."""
    cfg_file = tmp_path / "tight.yaml"
    cfg_file.write_text("{tau: [0, 0.06], n_max: 3}")
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
