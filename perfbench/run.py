"""Registration benchmark: a closed loop of serial `register` calls.

    python3 perfbench/run.py --workload identical-n512 --seed 1 --seconds 50 --trace 0

One client in one process registers the workload's pairs one after
another, each followed by the workload's `icp_baseline` calls timed on
their own, for whole rounds of pairs lasting about --seconds. No thread pool;
BLAS is pinned to one thread before numpy loads, as the test suite does.
Inputs come from --seed alone; the program sees only the two clouds.

--trace 0 reports the end-to-end metrics. --trace 1 registers every pair
twice, untraced and traced in alternating order, and reports the per-layer
metrics from the traced calls plus the tracing overhead.

Every returned rotation must be finite and orthonormal with det +1, every
identical-n512 pair must meet acceptance criterion 1's tolerances, and
traced transforms must equal untraced ones bit for bit. A failed check
makes the run print "correct": false and exit 1. The last stdout line is
the JSON result; the lines before it are a readable report. A record of the
run (environment, per-call values, failures, and in traced runs every span)
is written to perfbench/out/ at exit.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402  (thread caps must precede any numpy import)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 5
# setup_s is given in seconds on a machine whose Sinkhorn yardstick pass
# takes this long (about its median on the 2-CPU x86_64 host the baseline
# was recorded on): each repeat is scaled by the yardstick readings around
# it, as the timed calls are, so that it does not drift with the machine.
SETUP_REF_MS = 27.0
# Criterion 1's tolerances for exact recovery.
EXACT_MAE_R_DEG = 1e-2
EXACT_MAE_T = 1e-4
ORTHO_TOL = 1e-9
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
REF_KERNEL_SHAPE = (512, 16)
REF_SINKHORN_ITERATIONS = 150
REF_NN_POINTS = 512
REF_NN_ITERATIONS = 16


# Run by a fresh interpreter to time importing the program.
IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, scipy, ogmm; print(time.perf_counter() - start)")


def _import_program() -> None:
    """Import the checkout's own ogmm, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        import ogmm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(ogmm.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: ogmm was imported from {ogmm.__file__}, not from {SRC}")


def _import_seconds() -> float:
    """How long a fresh interpreter takes to import numpy, scipy and ogmm."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _pool_digest(pool) -> str:
    h = hashlib.sha256()
    for pair in pool:
        for arr in (pair.source.points, pair.target.points, pair.gt_transform.rotation,
                    pair.gt_transform.translation, pair.gt_overlap_source, pair.gt_overlap_target):
            h.update(arr.tobytes())
    return h.hexdigest()


def _setup(workload, seed: int, yardstick):
    """Import the program in a fresh interpreter, generate the pool and warm
    the pipeline, SETUP_REPEATS times, with the yardstick timed before the
    first repeat and after each.

    Returns the pool, the time of each repeat in seconds, and whether every
    repeat generated the same inputs. The warm-up registers a small cloud
    against its own motion with the workload's configuration at one start,
    which runs the code paths of the timed calls without timing a real pair.
    """
    from ogmm.geometry import apply_transform, random_transform
    from ogmm.io import sample_shape
    from ogmm.registration import icp_baseline, register
    from workloads import generate

    times, digests = [], set()
    pool = None
    yardstick.measure()
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        start = time.perf_counter()
        pool = generate(workload, seed)
        cloud = sample_shape("composite", 128, seed=0)
        moved = apply_transform(random_transform(0), cloud)
        register(cloud, moved, replace(pool[0].config, starts=1))
        icp_baseline(cloud, moved)
        times.append(import_s + time.perf_counter() - start)
        digests.add(_pool_digest(pool))
        yardstick.measure()
    return pool, times, len(digests) == 1


def _transform_problem(transform) -> str:
    """Empty when the transform is a finite proper rigid motion; else why not."""
    import numpy as np

    r, t = np.asarray(transform.rotation), np.asarray(transform.translation)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
        return "non-finite transform"
    if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHO_TOL:
        return "rotation not orthonormal"
    if abs(np.linalg.det(r) - 1.0) > ORTHO_TOL:
        return "rotation determinant is not +1"
    return ""


def _auc(scores, labels):
    """Rank AUC of scores against binary labels; None when one class is missing."""
    import numpy as np
    from scipy.stats import rankdata

    labels = np.asarray(labels, dtype=bool)
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _tail(values):
    """(percentile, value) at the highest percentile with at least ten calls
    beyond it, or None when the run has too few calls."""
    import numpy as np

    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return None


class Yardstick:
    """Two fixed reference loops that time the machine, not the program.

    On a shared host the CPU's speed can drift by 10-30% between runs a
    few minutes apart, and by as much within a run. Each is timed between consecutive pairs,
    and a call is divided by the yardstick of its own kind of work measured
    around it: `register` (mostly log-domain Sinkhorn) by a Sinkhorn-shaped
    loop, `icp_baseline` (dense nearest-neighbour blocks) by a cdist/argmin
    loop. Neither calls the program, so no change to it moves them.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.kernel = -20.0 * rng.random(REF_KERNEL_SHAPE)
        self.points = rng.random((2, REF_NN_POINTS, 3))
        self.sinkhorn_ms: list = []
        self.nn_ms: list = []

    def measure(self) -> None:
        import numpy as np
        from scipy.spatial.distance import cdist

        start = time.perf_counter()
        v = np.zeros(self.kernel.shape[1])
        for _ in range(REF_SINKHORN_ITERATIONS):
            x = self.kernel + v
            m = x.max(axis=1, keepdims=True)
            u = -np.log(np.exp(x - m).sum(axis=1)) - m[:, 0]
            y = self.kernel + u[:, None]
            m = y.max(axis=0)
            v = -np.log(np.exp(y - m).sum(axis=0)) - m
        middle = time.perf_counter()
        rows = np.arange(REF_NN_POINTS)
        for _ in range(REF_NN_ITERATIONS):
            d = cdist(self.points[0], self.points[1])
            d[rows, np.argmin(d, axis=1)].sum()
        end = time.perf_counter()
        self.sinkhorn_ms.append((middle - start) * 1000.0)
        self.nn_ms.append((end - middle) * 1000.0)


@dataclass
class Run:
    """Everything the measured loop observed.

    The yardstick is timed at every step boundary; a call made in step k
    is divided by the mean of its readings k and k + 1.
    """

    register_ms: list = field(default_factory=list)
    register_steps: list = field(default_factory=list)
    register_traced_ms: list = field(default_factory=list)
    icp_ms: list = field(default_factory=list)
    icp_steps: list = field(default_factory=list)
    icp_iterations: list = field(default_factory=list)
    yardstick: Yardstick = field(default_factory=Yardstick)
    geodesic: list = field(default_factory=list)
    icp_geodesic: list = field(default_factory=list)
    recovered: list = field(default_factory=list)
    aucs: list = field(default_factory=list)
    bces: list = field(default_factory=list)
    calls: int = 0
    failures: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)
    completed: list = field(default_factory=list)

    def fail_check(self, pair_id: str, detail: str) -> None:
        self.check_failures.append({"pair": pair_id, "check": detail})

    def call(self, pair_id: str, stage: str, fn, *args, **kwargs):
        """Time one call; a raise is kept with its class and message."""
        self.calls += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every raise is a counted failure
            self.failures.append({"pair": pair_id, "stage": stage,
                                  "error": type(exc).__name__, "message": str(exc)})
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    @staticmethod
    def in_ref(values_ms: list, steps: list, ref_ms: list) -> list:
        """Each time divided by the yardstick reading around its step."""
        return [v / (0.5 * (ref_ms[k] + ref_ms[k + 1])) for v, k in zip(values_ms, steps)]


def _score(run: Run, workload, pair, result) -> None:
    import numpy as np
    from ogmm.losses import overlap_score_loss
    from ogmm.metrics import geodesic_rotation_deg, mae_rotation, mae_translation

    problem = _transform_problem(result.transform)
    if problem:
        run.fail_check(pair.pair_id, f"register: {problem}")
    geodesic = geodesic_rotation_deg(result.transform, pair.gt_transform)
    run.geodesic.append(geodesic)
    if workload.exact:
        mae_r = mae_rotation(result.transform, pair.gt_transform)
        mae_t = mae_translation(result.transform, pair.gt_transform)
        recovered = mae_r <= EXACT_MAE_R_DEG and mae_t <= EXACT_MAE_T
        if not recovered:
            run.fail_check(pair.pair_id, f"criterion 1: MAE(R) {mae_r:.3e} deg, MAE(t) {mae_t:.3e}")
    else:
        recovered = geodesic <= workload.geodesic_tol_deg
    run.recovered.append(recovered)
    auc = _auc(np.concatenate([result.overlap_source, result.overlap_target]),
               np.concatenate([pair.gt_overlap_source, pair.gt_overlap_target]))
    if auc is not None:
        run.aucs.append(auc)
    run.bces.append(overlap_score_loss(result.overlap_source, pair.gt_overlap_source,
                                       result.overlap_target, pair.gt_overlap_target))


def _same_transform(a, b) -> bool:
    return (a.rotation.tobytes() == b.rotation.tobytes()
            and a.translation.tobytes() == b.translation.tobytes())


def _icp(run: Run, pair, step: int, tracer, traced) -> None:
    from ogmm import registration
    from ogmm.metrics import geodesic_rotation_deg

    icp_args = (pair.pair_id, "icp_baseline")
    if tracer is None:
        icp, icp_s = run.call(*icp_args, registration.icp_baseline, pair.source, pair.target,
                              return_diagnostics=True)
    else:
        with tracer:
            icp, icp_s = run.call(*icp_args, traced["icp"], pair.source, pair.target,
                                  return_diagnostics=True)
    if icp is None:
        return
    transform, diagnostics = icp
    run.icp_ms.append(icp_s * 1000.0)
    run.icp_steps.append(step)
    run.icp_iterations.append(diagnostics["iterations"])
    problem = _transform_problem(transform)
    if problem:
        run.fail_check(pair.pair_id, f"icp_baseline: {problem}")
    run.icp_geodesic.append(geodesic_rotation_deg(transform, pair.gt_transform))


def _step(run: Run, workload, pair, icp_pairs, step: int, tracer, traced) -> None:
    """Register one pair, then run ICP on each of `icp_pairs`, timing every call.

    With a tracer, the pair is registered untraced and traced, in an order
    that alternates by step, and the two transforms must agree bit for bit.
    """
    from ogmm import registration

    request = f"{pair.pair_id}/{step}"
    args = (pair.source, pair.target, pair.config)
    if tracer is None:
        result, reg_s = run.call(pair.pair_id, "register", registration.register, *args)
    else:
        tracer.request = request
        outcome = {}
        for with_trace in ((False, True) if step % 2 else (True, False)):
            if with_trace:
                with tracer:
                    outcome[True] = run.call(pair.pair_id, "register(traced)", traced["register"], *args)
            else:
                outcome[False] = run.call(pair.pair_id, "register", registration.register, *args)
        result, reg_s = outcome[False]
        traced_result, traced_s = outcome[True]
        if (result is None) != (traced_result is None):
            run.fail_check(pair.pair_id, "traced and untraced calls disagree on failure")
            return
        if result is not None:
            if not _same_transform(result.transform, traced_result.transform):
                run.fail_check(pair.pair_id, "traced transform differs from untraced")
            run.register_traced_ms.append(traced_s * 1000.0)
    if result is None:
        return
    run.register_ms.append(reg_s * 1000.0)
    run.register_steps.append(step)
    _score(run, workload, pair, result)
    for icp_pair in icp_pairs:
        _icp(run, icp_pair, step, tracer, traced)
    run.completed.append(request)


def _measure(pool, workload, seconds: float, tracer) -> Run:
    """The closed loop: whole rounds of pairs for about `seconds`, with the
    yardstick timed before the first pair and after each."""
    from ogmm import registration

    run = Run()
    traced = None
    if tracer is not None:
        traced = {
            "register": tracer.wrap("registration.register", registration.register),
            "icp": tracer.wrap("registration.icp_baseline", registration.icp_baseline),
        }
    run.yardstick.measure()
    start = time.perf_counter()
    step = 0
    while True:
        icp_pairs = [pool[(workload.icp_per_step * step + j) % len(pool)]
                     for j in range(workload.icp_per_step)]
        _step(run, workload, pool[step % len(pool)], icp_pairs, step, tracer, traced)
        run.yardstick.measure()
        step += 1
        if step % workload.round_size == 0:
            # Stop at the round boundary nearest to `seconds`.
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed * workload.round_size / step >= seconds:
                return run


def _line(name, value, unit, n, note="") -> str:
    return f"  {name:<36} {value:>14.6g} {unit:<6} n={n}" + (f"  {note}" if note else "")


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.startswith("self_ms."):
        return "ms"
    if name.endswith("_deg_median"):
        return "deg"
    if name.endswith("_frac") or name.endswith("_auc") or name.endswith("_bce") or name.endswith("_max"):
        return "ratio"
    return "count"


def _end_to_end(run: Run, setup_s: float) -> dict:
    """The gated metrics. Call times are in units of the reference loop
    ("ref"), which cancels the machine's drift; setup_s is scaled likewise."""
    n = len(run.register_ms)
    register_ref = run.in_ref(run.register_ms, run.register_steps, run.yardstick.sinkhorn_ms)
    icp_ref = run.in_ref(run.icp_ms, run.icp_steps, run.yardstick.nn_ms)
    return {
        "register_p50_ref": (statistics.median(register_ref), "ref", n),
        "pairs_per_kref": (1000.0 * n / sum(register_ref), "1/kref", n),
        "icp_p50_ref": (statistics.median(icp_ref), "ref", len(icp_ref)),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def _ungated(run: Run, setup_wall_s: float) -> dict:
    """Wall-clock forms of the gated times and ICP per iteration, reported
    but not gated. ICP's +1 counts the closing step that every call makes."""
    n = len(run.register_ms)
    icp_ref = run.in_ref(run.icp_ms, run.icp_steps, run.yardstick.nn_ms)
    return {
        "icp_ref_per_iter": (sum(icp_ref) / sum(i + 1 for i in run.icp_iterations), "ref", len(icp_ref)),
        "register_ms_p50": (statistics.median(run.register_ms), "ms", n),
        "pairs_per_s": (1000.0 * n / sum(run.register_ms), "1/s", n),
        "icp_ms_p50": (statistics.median(run.icp_ms), "ms", len(run.icp_ms)),
        "icp_ms_per_iter": (sum(run.icp_ms) / sum(i + 1 for i in run.icp_iterations), "ms", len(run.icp_ms)),
        "ref_sinkhorn_ms_p50": (statistics.median(run.yardstick.sinkhorn_ms), "ms", len(run.yardstick.sinkhorn_ms)),
        "ref_nn_ms_p50": (statistics.median(run.yardstick.nn_ms), "ms", len(run.yardstick.nn_ms)),
        "setup_wall_s": (setup_wall_s, "s", SETUP_REPEATS),
    }


def _per_layer(run: Run, tracer) -> dict:
    from spans import layer_metrics

    done = set(run.completed)
    n = len(done)
    values = layer_metrics([s for s in tracer.spans if s.request in done], n, tracer.absent)
    values["trace.overhead_ms"] = (statistics.median(run.register_traced_ms)
                                   - statistics.median(run.register_ms))
    values["trace.ref_sinkhorn_ms"] = statistics.median(run.yardstick.sinkhorn_ms)
    values["trace.ref_nn_ms"] = statistics.median(run.yardstick.nn_ms)
    # A pair whose labels hold one class has no AUC; a run with none such
    # (identical clouds, all points overlap) reports chance level.
    values["attention.overlap_auc"] = statistics.mean(run.aucs) if run.aucs else 0.5
    values["attention.overlap_bce"] = statistics.mean(run.bces)
    values["registration.geodesic_deg_median"] = statistics.median(run.geodesic)
    values["registration.recovered_frac"] = sum(run.recovered) / len(run.recovered)
    values["registration.icp_geodesic_deg_median"] = statistics.median(run.icp_geodesic)
    return {k: (v, _unit(k), n) for k, v in sorted(values.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Registration benchmark (closed loop).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "out"),
                        help="directory for the run record (default: perfbench/out)")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = _environment(args)

    setup_stick = Yardstick()
    pool, setup_repeats, deterministic = _setup(workload, args.seed, setup_stick)
    setup_s = SETUP_REF_MS * statistics.median(
        Run.in_ref(setup_repeats, range(SETUP_REPEATS), setup_stick.sinkhorn_ms))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    run = _measure(pool, workload, args.seconds, tracer)

    if not deterministic:
        run.fail_check("*", "set-up repeats generated different inputs")
    if workload.exact and run.failures:
        run.fail_check("*", "criterion 1: a pair raised instead of recovering the motion")
    if not run.completed:
        run.fail_check("*", "no pair completed")
    correct = not run.check_failures

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             "environment: " + json.dumps(env, sort_keys=True)]
    metrics = {}
    if run.completed and tracer is None:
        metrics = _end_to_end(run, setup_s)
        lines.append("end to end (tracing off; 1 ref = one pass of the matching yardstick loop):")
        lines += [_line(k, v, u, n) for k, (v, u, n) in metrics.items()]
        lines.append("not gated (wall clock drifts with the machine's speed):")
        lines += [_line(k, v, u, n) for k, (v, u, n)
                  in _ungated(run, statistics.median(setup_repeats)).items()]
        lines.append(f"  setup_s: median over {SETUP_REPEATS} set-up repeats of its seconds"
                     f" x {SETUP_REF_MS:g} ms / the yardstick reading around it")
        tail = _tail(run.register_ms)
        if tail is None:
            lines.append(f"  register_ms_tail omitted: {len(run.register_ms)} calls leave fewer than "
                         "ten beyond p75")
        else:
            lines.append(_line("register_ms_tail", tail[1], "ms", len(run.register_ms), f"p{tail[0]:g}"))
    elif run.completed:
        metrics = _per_layer(run, tracer)
        lines.append("per layer (traced calls, means per registered pair):")
        lines += [_line(k, v, u, n) for k, (v, u, n) in metrics.items()]
        lines.append(f"  untraced register_ms_p50 {statistics.median(run.register_ms):.6g} ms, "
                     f"traced {statistics.median(run.register_traced_ms):.6g} ms")
        lines += [f"  absent boundary {name}: its metrics are omitted" for name in tracer.absent]
    if run.completed:
        tol = (f"MAE(R)<={EXACT_MAE_R_DEG:g} deg and MAE(t)<={EXACT_MAE_T:g}" if workload.exact
               else f"geodesic<={workload.geodesic_tol_deg:g} deg")
        lines += [
            "accuracy:",
            _line("geodesic_deg_median", statistics.median(run.geodesic), "deg", len(run.geodesic)),
            _line("recovered_frac", sum(run.recovered) / len(run.recovered), "ratio",
                  len(run.recovered), tol),
            _line("icp_geodesic_deg_median", statistics.median(run.icp_geodesic), "deg",
                  len(run.icp_geodesic)),
        ]
    lines.append(_line("failed_frac", len(run.failures) / max(run.calls, 1), "ratio", run.calls,
                       "calls that raised"))
    lines += [f"  failure {f['pair']} {f['stage']}: {f['error']}: {f['message']}" for f in run.failures]
    lines += [f"  CHECK FAILED {c['pair']}: {c['check']}" for c in run.check_failures]
    lines.append(f"correctness: {'ok' if correct else 'FAILED'}")

    record = {
        "environment": env,
        "correct": correct,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "register_ms": run.register_ms,
        "register_steps": run.register_steps,
        "icp_ms": run.icp_ms,
        "icp_steps": run.icp_steps,
        "ref_sinkhorn_ms": run.yardstick.sinkhorn_ms,
        "ref_nn_ms": run.yardstick.nn_ms,
        "setup_repeat_s": setup_repeats,
        "setup_ref_sinkhorn_ms": setup_stick.sinkhorn_ms,
        "icp_iterations": run.icp_iterations,
        "geodesic_deg": run.geodesic,
        "failures": run.failures,
        "check_failures": run.check_failures,
    }
    if tracer is not None:
        record["absent_boundaries"] = tracer.absent
        record["spans"] = [s.to_json() for s in tracer.spans]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")
    lines.append(f"record: {out_path}")

    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": run.calls,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
