"""Self-test of the benchmark on a tiny op list per workload.

    python3 perfbench/selftest.py

Checks that (1) every metric BENCHMARK.json names is emitted, and nothing
else, in the untraced and the traced run; (2) every metric name matches
[A-Za-z0-9_.-]+; (3) a deliberately perturbed op output is counted as a
failed op, with a larger error ratio than the unperturbed output, and makes
probe_err_gm (and probe_pass_frac, where the unperturbed op passes) worse by
more than its bound.  The runs use --seconds 0, so each makes one timed
pass.  Exits 0 when all hold.
"""

import copy
import json
import math
import re
import sys
import warnings

import run  # pins the BLAS threads before numpy is imported

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def perturbed(name, out):
    """A copy of an op output that a correct check must reject."""
    bad = copy.deepcopy(out)
    if name == "identities":
        bad["checks"][0]["max_residual"] = 10 * bad["checks"][0]["tolerance"]
        bad["pass"] = False
    elif name == "det-scale":
        mantissa, exponent = bad["rows"][0]["digest"].rsplit("e", 1)
        bad["rows"][0]["digest"] = f"{mantissa}e{int(exponent) - 1:+d}"  # value / 10
    else:
        route = sorted(bad.routes)[0]
        bad.routes[route].value *= 1 + 1e-6
    return bad


def accuracy(workload, op, out) -> tuple:
    """(tally, accuracy metrics) of one checked output, as a one-op probe."""
    tally = run.Tally()
    run.check_pass(workload, [(op, out, 0.0, 1.0, 0)], tally, {})
    return tally, tally.probe_metrics()


def worse_beyond_bound(spec: dict, base: float, value: float) -> bool:
    if spec["better"] == "lower":
        return value > base * (1 + spec["bound"])
    return value < base * (1 - spec["bound"])


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    for name, workload in WORKLOADS.items():
        ops = workload.ops(1, 1)[:1]
        for trace in (0, 1):
            line, *_ = run.benchmark(workload, ops, ops, 0.0, bool(trace))
            emitted = list(line["metrics"])
            if sorted(emitted) != sorted(expected[trace]):
                problems.append(f"{name} trace={trace}: emitted {emitted}, "
                                f"expected {expected[trace]}")
            for metric, body in line["metrics"].items():
                if not NAME.fullmatch(metric):
                    problems.append(f"{name}: bad metric name {metric!r}")
                if not math.isfinite(body["value"]):
                    problems.append(f"{name}: {metric} = {body['value']}")
            if not (line["attempted"] >= 1 and line["correct"] is True):
                problems.append(f"{name} trace={trace}: {line}")

        op = ops[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = workload.run(op)
        base_tally, base = accuracy(workload, op, out)
        tally, bad = accuracy(workload, op, perturbed(name, out))
        if not base_tally.correct:
            problems.append(f"{name}: unperturbed output could not be checked")
        if tally.failed != 1 or not tally.ratios[0] > base_tally.ratios[0]:
            problems.append(f"{name}: perturbed output not counted as failed "
                            f"(ratio {tally.ratios[0]} vs unperturbed {base_tally.ratios[0]})")
        moved = [m for m in bad if worse_beyond_bound(bounded[m], base[m], bad[m])]
        must_move = ["probe_err_gm"] + (["probe_pass_frac"] if base_tally.failed == 0 else [])
        if not set(must_move) <= set(moved):
            problems.append(f"{name}: perturbed output moved {moved} past their bounds, "
                            f"expected {must_move} ({base} -> {bad})")
        print(f"{name}: checked", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
