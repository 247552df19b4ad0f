"""ellipdw benchmark.

    python3 perfbench/run.py --workload {identities,det-scale,compare} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a fixed op list derived from --seed (see workloads.py),
run in passes until --seconds of timed work is done.  Every execution of an
op is checked outside the timed region.  ``attempted`` counts the distinct
ops (the probe's and the --seed list's), and ``failed`` those of them of
which an execution raised or missed its tolerance, so both depend on the seed
only, not on how many passes fit in the run.  ``correct`` is true when every
op returned an output the check could read and the value checked is the one
the timed call produced.

Host speed on a shared machine drifts by 15-30 % over tens of seconds: the
same op at the same seed reads that much apart.  So a fixed reference kernel
of the kind of work the workload does (KERNELS; no ellipdw code) is timed
before and after every op, and each op's time is rescaled by the mean of
those two reference times to the speed at which the kernel takes its typical
time.  The *_norm_s metrics are these rescaled times; the raw ones are in the
info line.  Over five compare runs at one seed, rescaling cut the spread
(quartile distance over median) of the pass time from 0.17 to 0.085; a
kernel of another kind does not track: the scalar kernel raised det-scale's
pass time spread from 0.045 to 0.074, where the array kernel kept it at 0.044
and cut the op_p50 spread from 0.072 to 0.024.

The last stdout line is one JSON object.  With --trace 0 its metrics are
the end-to-end ones (untraced):

* setup_s -- median time, in a fresh process, to import ellipdw and parse
  the workload's config (one discarded warm-up, then SETUP_REPEATS runs,
  half before the timed passes and half after: host speed drifts, and the
  median of ten runs in a row read 0.32 s in one run of the benchmark and
  0.44 s in the next);
* wall_norm_s -- median, over the passes, of the rescaled time of one pass
  over the op list (the sum of its ops' rescaled latencies);
* op_p50_norm_s -- median, over the op list, of each op's median rescaled
  latency over the passes (sample count = ``op_samples`` in the info line).
  Pooling the samples instead would put det-scale's median in the gap
  between its N=64 and N=128 ops, where it swung by a quarter from run to
  run;
* probe_err_gm -- geometric mean, over the probe ops, of each op's
  error/tolerance clamped to [1, RATIO_CAP]: 1 when every probe op is within
  tolerance, and a probe op whose error grows k-fold past its tolerance
  multiplies it by k ** (1 / probe ops);
* probe_pass_frac -- (probe ops passed + 1) / (probe ops + 1);
* peak_rss_mb -- peak resident set of the benchmark process after the
  timed passes.

The probe is the first group of the workload's op list at the fixed
PROBE_SEED, run and checked once before the timed passes (it is also their
warm-up).  The accuracy of the --seed ops swings by decades from one draw to
the next (det-scale N=64 reads 73 to 1e9 times its tolerance), so no bound on
it could hold across seeds; the probe's accuracy repeats exactly, so any
change to it shows.  The --seed ops still count in ``failed``, and the info
line before the result gives their fail_frac, err_max_log10 (log10 of the
worst error/tolerance), the worst ratio per op, the raw wall_s and op_p50_s,
and the median factor ref_scale by which latencies were rescaled.

With --trace 1, untraced and traced passes alternate; the metrics are the
per-layer totals of one traced pass plus trace.overhead_frac, and the spans
are written to perfbench/out/.
"""

import os

# Pinned before numpy is imported anywhere: 2 OpenBLAS threads on a 2-core
# machine double the N = 128 determinant op.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ELLIPDW_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
# Bound here, so the tracer's wrapper of scipy.linalg.lu_factor never sees the
# reference kernel's call.
from scipy.linalg import lu_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 6
PROBE_SEED = 0
# An error/tolerance past 1e9 is an error of order 1 at the 1e-9 tolerance of
# det-scale and compare: no correct digit is left, and how far past it a value
# lands varies with rounding (BLAS threads move det-scale N >= 128 there).
RATIO_CAP = 1e9
# One kernel run reads up to a fifth off its neighbours; the mean of three
# keeps that out of a single op's rescaled time.
REF_REPEATS = 3
SCALAR_U = np.linspace(0.0, 1.0, 2048) * (0.3 + 0.1j)
SCALAR_A = np.random.default_rng(0).standard_normal((320, 320))
ARRAY_U = np.linspace(0.0, 1.0, 16384) * (0.3 + 0.1j)
ARRAY_A = np.random.default_rng(0).standard_normal((400, 400)) + 0j
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import ellipdw
from ellipdw.config import parse_config
parse_config(sys.argv[1])
print(time.perf_counter() - t0)
"""

LAYER_METRICS = (
    ("elliptic.theta_scalar.calls", "count"), ("elliptic.theta_scalar.s", "s"),
    ("elliptic.theta_grid.calls", "count"), ("elliptic.theta_grid.points", "count"),
    ("elliptic.theta_grid.s", "s"),
    ("config.draw.calls", "count"), ("config.draw.s", "s"),
    ("config.draw.accept_ratio", "ratio"), ("oracle.require_generic.s", "s"),
    ("closedform.lu.calls", "count"), ("closedform.lu.s", "s"),
    ("closedform.det.self_s", "s"), ("closedform.conditioning_warnings", "count"),
    ("closedform.permsum.self_s", "s"),
    ("tensor.apply.calls", "count"), ("tensor.apply.s", "s"),
    ("oracle.route.self_s", "s"),
    ("rmatrices.r_build.calls", "count"), ("rmatrices.r_build.self_s", "s"),
    ("boundary.k_build.calls", "count"), ("boundary.k_build.self_s", "s"),
    ("fbasis.self_s", "s"), ("report.s", "s"), ("runner.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy), "scipy_openblas": blas(scipy),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ELLIPDW_THREADS")}}


def scalar_kernel() -> complex:
    """Mostly numpy scalar terms, as in the theta series; a small grid and LU."""
    total = 0j
    for n in range(-600, 601):
        term = np.exp(1j * np.pi * (n * n * 1e-4j + 2.0 * n * 0.1))
        total = total + term
        max(np.max(np.abs(term)), 0.0)
    total += np.exp(1j * np.pi * np.outer(np.arange(-8, 9), SCALAR_U)).sum()
    lu_factor(SCALAR_A)
    return total


def array_kernel() -> complex:
    """A grid exponential and a complex LU, as in the determinant route."""
    total = np.exp(1j * np.pi * np.outer(np.arange(-8, 9), ARRAY_U)).sum()
    lu_factor(ARRAY_A)
    return total


# Reference kernel by kind, with its typical time on a 2-vCPU Intel Xeon at
# 1 BLAS thread: the rescaled times are those of a host at that speed.
KERNELS = {"scalar": (scalar_kernel, 0.0115), "array": (array_kernel, 0.0185)}


def reference_time(kernel) -> float:
    """Mean time of REF_REPEATS runs of ``kernel``."""
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        kernel()
    return (time.perf_counter() - t0) / REF_REPEATS


def setup_times(config_text: str, repeats: int) -> list:
    """Import-and-parse time in each of ``repeats`` fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, config_text],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Tally:
    """Per-execution latency and verdict."""

    def __init__(self):
        self.labels = []
        self.latencies = []
        self.scales = []
        self.ratios = []
        self.checkable = []

    def add(self, label, latency, scale, ratio, checkable):
        self.labels.append(label)
        self.latencies.append(latency)
        self.scales.append(scale)
        self.ratios.append(ratio)
        self.checkable.append(checkable)

    @property
    def executions(self) -> int:
        return len(self.ratios)

    @property
    def attempted(self) -> int:
        """Distinct ops run; a pass repeats the same ops on the same inputs."""
        return len(set(self.labels))

    @property
    def failed(self) -> int:
        """Distinct ops of which an execution raised or missed its tolerance."""
        return len({label for label, r in zip(self.labels, self.ratios) if not r <= 1.0})

    @property
    def correct(self) -> bool:
        return bool(self.checkable) and all(self.checkable)

    def op_p50(self, norm: bool) -> float:
        per_op = {}
        for label, latency, scale in zip(self.labels, self.latencies, self.scales):
            per_op.setdefault(label, []).append(latency * scale if norm else latency)
        return statistics.median(statistics.median(v) for v in per_op.values())

    def err_gm(self) -> float:
        clamped = [1.0 if r <= 1.0 else r if r <= RATIO_CAP else RATIO_CAP
                   for r in self.ratios]  # NaN reads as the cap
        return math.exp(statistics.fmean(math.log(r) for r in clamped))

    def pass_frac(self) -> float:
        return (self.attempted - self.failed + 1) / (self.attempted + 1)

    def probe_metrics(self) -> dict:
        """The bounded accuracy metrics, for a tally of the probe ops."""
        return {"probe_err_gm": self.err_gm(), "probe_pass_frac": self.pass_frac()}

    def err_max_log10(self):
        worst = max(self.ratios)
        return math.log10(worst) if 0 < worst < math.inf else None

    def op_errors(self) -> dict:
        """Worst error/tolerance per op label (None: output not checkable)."""
        out = {}
        for label, ratio in zip(self.labels, self.ratios):
            prev = out.get(label, 0.0)
            out[label] = None if prev is None or not math.isfinite(ratio) else max(prev, ratio)
        return out


def run_pass(workload, ops, tracer=None):
    """One pass over the op list; returns [(op, out, latency, scale, warns)].

    ``scale`` rescales the latency to the reference speed: the kernel's
    typical time over the mean of its times just before and just after the
    op, outside the op's timed region.
    """
    from ellipdw.errors import ConditioningWarning

    kernel, typical = KERNELS[workload.reference]
    done = []
    ref = reference_time(kernel)
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always", ConditioningWarning)
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            latency = time.perf_counter() - t0
        warns = sum(1 for w in seen if issubclass(w.category, ConditioningWarning))
        ref_after = reference_time(kernel)
        done.append((op, out, latency, 2 * typical / (ref + ref_after), warns))
        ref = ref_after
    return done


def pass_wall(done, norm: bool) -> float:
    """Time of a pass's ops, rescaled to the reference speed when ``norm``."""
    return sum(latency * scale if norm else latency
               for _op, _out, latency, scale, _warns in done)


def check_pass(workload, done, tally, cache):
    """Check every op of a pass outside the timed region."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op, out, latency, scale, _warns in done:
            if isinstance(out, Exception):
                print(f"op {op.label} raised:", file=sys.stderr)
                traceback.print_exception(out, file=sys.stderr)
                tally.add(op.label, latency, scale, math.inf, False)
                continue
            ratio = workload.check(op, out, cache)
            tally.add(op.label, latency, scale, ratio, math.isfinite(ratio))


def measure(workload, ops, probe, seconds, trace):
    """Probe pass, then timed passes until ``seconds`` of timed work.

    Returns (tally, probe tally, metrics, tracer, raw times).  Untraced: every
    timed pass is plain.  Traced: plain and traced passes alternate, the layer
    metrics are per traced pass, and the overhead compares the two.
    """
    from spans import Tracer, draw_accept_ratio, layer_totals

    tally, probe_tally, cache = Tally(), Tally(), {}
    plain, traced_walls = [], []
    traced_warnings = 0
    tracer = Tracer() if trace else None
    # Untimed: lets lazy set-up and caches fill before the timed passes.
    check_pass(workload, run_pass(workload, probe), probe_tally, cache)
    elapsed = 0.0  # time in passes, reference kernels included; checks excluded
    while True:
        t0 = time.perf_counter()
        done = run_pass(workload, ops)
        plain.append(done)
        if trace:
            tracer.install()
            try:
                traced = run_pass(workload, ops, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(pass_wall(traced, norm=False))
            traced_warnings += sum(w for *_, w in traced)
            done = done + traced
        elapsed += time.perf_counter() - t0
        check_pass(workload, done, tally, cache)
        passes = len(plain)
        if elapsed * (passes + 1) / passes > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain_walls = [pass_wall(done, norm=False) for done in plain]
    raw = {"wall_s": statistics.median(plain_walls), "op_p50_s": tally.op_p50(norm=False),
           "ref_scale": statistics.median(tally.scales)}

    if not trace:
        return tally, probe_tally, {
            "wall_norm_s": statistics.median(pass_wall(done, norm=True) for done in plain),
            "op_p50_norm_s": tally.op_p50(norm=True),
            **probe_tally.probe_metrics(),
            "peak_rss_mb": peak_rss_mb,
        }, None, raw

    n = len(traced_walls)
    totals = layer_totals(tracer.spans)
    derived = {
        "config.draw.accept_ratio": draw_accept_ratio(tracer.spans),
        "closedform.conditioning_warnings": traced_warnings / n,
        "trace.overhead_frac": (statistics.median(traced_walls)
                                / statistics.median(plain_walls) - 1.0),
    }
    metrics = {}
    for name, _unit in LAYER_METRICS:
        layer, field = name.rsplit(".", 1)
        metrics[name] = derived[name] if name in derived else totals[layer][field] / n
    return tally, probe_tally, metrics, tracer, raw


def benchmark(workload, ops, probe, seconds, trace):
    """Measure one workload; returns (result line, tally, tracer or None, raw times).

    ``attempted`` and ``failed`` count distinct ops, the probe's too.
    """
    text = ops[0].config_text
    if not trace:
        setup = setup_times(text, 1 + SETUP_REPEATS // 2)[1:]  # first: warm-up
    tally, probe_tally, metrics, tracer, raw = measure(workload, ops, probe, seconds, trace)
    if not trace:
        setup += setup_times(text, SETUP_REPEATS - len(setup))
        metrics = {"setup_s": statistics.median(setup), **metrics}
    units = dict(LAYER_METRICS, setup_s="s", wall_norm_s="s", op_p50_norm_s="s",
                 probe_err_gm="ratio", probe_pass_frac="ratio", peak_rss_mb="MB")
    line = {"correct": tally.correct and probe_tally.correct,
            "attempted": tally.attempted + probe_tally.attempted,
            "failed": tally.failed + probe_tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return line, tally, tracer, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellipdw" / "__init__.py").is_file():
        print(f"benchmark: no ellipdw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    ops = workload.ops(args.seed, workload.groups)
    probe = workload.ops(PROBE_SEED, 1)
    line, tally, tracer, raw = benchmark(workload, ops, probe, args.seconds, bool(args.trace))
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "op_samples": tally.executions, **raw,
            "fail_frac": tally.failed / tally.attempted,
            "err_max_log10": tally.err_max_log10(),
            "op_err_over_tol": tally.op_errors(),
            "env": environment()}
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans_{workload.name}_seed{args.seed}.tsv.gz"
        tracer.write(path, info)
        info["spans"] = str(path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
