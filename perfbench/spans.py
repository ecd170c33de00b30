"""Span tracing around the pipeline's layer boundaries, from outside `src/`.

Each boundary is a public function looked up where its caller binds it
(`ogmm.registration.encode`, not `ogmm.features.encode`), so replacing that
module attribute with a wrapper intercepts exactly the calls the pipeline
makes. A wrapper records one span (name, start, end, parent span, request
id) plus a few counts read off the result, and returns the result object
untouched. Spans stay in memory until the run writes them out.

A boundary the code no longer has is reported as absent, and every metric
derived from it is left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

# (span name, module the caller lives in, attribute the caller binds).
# The two Sinkhorn call sites get distinct span names: the k-means one
# runs inside clustering, the matching one inside mixture.
BOUNDARIES = (
    ("features.encode", "ogmm.registration", "encode"),
    ("clustering.wasserstein_kmeans", "ogmm.registration", "wasserstein_kmeans"),
    ("clustering.soft_assignment", "ogmm.registration", "soft_assignment"),
    ("attention.clustered_self_attention", "ogmm.registration", "clustered_self_attention"),
    ("attention.clustered_cross_attention", "ogmm.registration", "clustered_cross_attention"),
    ("attention.overlap_scores", "ogmm.registration", "overlap_scores"),
    ("mixture.estimate_gmm", "ogmm.registration", "estimate_gmm"),
    ("mixture.match_components", "ogmm.registration", "match_components"),
    ("mixture.weighted_svd", "ogmm.registration", "weighted_svd"),
    ("geometry.nearest_neighbors", "ogmm.registration", "nearest_neighbors"),
    ("transport.sinkhorn.kmeans", "ogmm.clustering", "sinkhorn"),
    ("transport.sinkhorn.match", "ogmm.mixture", "sinkhorn"),
)

# The two entry points the benchmark calls itself.
REGISTER = "registration.register"
ICP = "registration.icp_baseline"


def _counts(name: str, args: tuple, result) -> Optional[dict]:
    """Work counts read off a boundary's arguments and result."""
    if name.startswith("transport.sinkhorn"):
        return {
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "marginal_error": float(result.marginal_error),
        }
    if name == "geometry.nearest_neighbors":
        return {"queries": int(len(args[0]))}
    if name == "clustering.wasserstein_kmeans":
        return {"lloyd_steps": int(result.n_iter)}
    if name == ICP:
        return {"iterations": int(result[1]["iterations"])}
    return None


@dataclass
class Span:
    span_id: int
    name: str
    request: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Optional[dict] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_json(self) -> dict:
        out = {
            "id": self.span_id,
            "name": self.name,
            "request": self.request,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }
        if self.counts:
            out.update(self.counts)
        return out


class Tracer:
    """Holds the spans of one run and the patches that produce them.

    Used as a context manager: entering swaps every present boundary for a
    recording wrapper and leaving puts the originals back, so one process
    can alternate traced and untraced calls on the same inputs.
    """

    def __init__(self):
        self.spans: list = []
        self.request = ""
        self._stack: list = []
        self._originals: list = []
        self.absent: list = []
        self.present: list = []
        for name, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.present.append((name, module, attr))
            else:
                self.absent.append(f"{module_name}.{attr}")

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            span = Span(
                len(self.spans),
                name,
                self.request,
                self._stack[-1] if self._stack else None,
                time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span.span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, module, attr in self.present:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_ms(spans: list) -> dict:
    """Self time of each span: its duration minus its direct children's."""
    child_ms = {}
    for span in spans:
        if span.parent is not None:
            child_ms[span.parent] = child_ms.get(span.parent, 0.0) + span.ms
    return {span.span_id: span.ms - child_ms.get(span.span_id, 0.0) for span in spans}


LAYERS = ("features", "clustering", "transport", "attention", "mixture", "geometry", "registration")


def layer_metrics(spans: list, n_pairs: int, absent: list) -> dict:
    """Per-layer metrics as means per registered pair (maxima where named),
    except registration.icp_iterations, a mean per ICP call. A pair's ICP
    calls count toward its means.

    Only spans of completed pairs should be passed in. A metric whose
    boundary is absent is omitted.
    """
    own = self_ms(spans)

    def of(name):
        return [s for s in spans if s.name == name]

    def per_pair(total):
        return total / n_pairs

    def total_ms(name):
        return per_pair(sum(s.ms for s in of(name)))

    def total_count(name, key):
        return per_pair(sum(s.counts[key] for s in of(name)))

    missing = {name for name, module_name, attr in BOUNDARIES if f"{module_name}.{attr}" in absent}
    out = {}

    def put(metric, needs, compute):
        if not (set(needs) & missing):
            out[metric] = compute()

    kmeans, match = "transport.sinkhorn.kmeans", "transport.sinkhorn.match"
    put("transport.kmeans_ms", [kmeans], lambda: total_ms(kmeans))
    put("transport.kmeans_iterations", [kmeans], lambda: total_count(kmeans, "iterations"))
    put("transport.kmeans_calls", [kmeans], lambda: per_pair(len(of(kmeans))))
    put("transport.kmeans_unconverged", [kmeans],
        lambda: per_pair(sum(not s.counts["converged"] for s in of(kmeans))))
    put("clustering.kmeans_ms", ["clustering.wasserstein_kmeans"],
        lambda: total_ms("clustering.wasserstein_kmeans"))
    put("clustering.soft_assign_ms", ["clustering.soft_assignment"],
        lambda: total_ms("clustering.soft_assignment"))
    put("clustering.kmeans_lloyd_steps", ["clustering.wasserstein_kmeans"],
        lambda: total_count("clustering.wasserstein_kmeans", "lloyd_steps"))
    put("transport.match_ms", [match], lambda: total_ms(match))
    put("transport.match_iterations", [match], lambda: total_count(match, "iterations"))
    put("transport.match_unconverged", [match],
        lambda: per_pair(sum(not s.counts["converged"] for s in of(match))))
    put("transport.match_marginal_error_max", [match],
        lambda: max((s.counts["marginal_error"] for s in of(match)), default=0.0))
    put("mixture.match_ms", ["mixture.match_components"],
        lambda: per_pair(sum(own[s.span_id] for s in of("mixture.match_components"))))
    put("features.encode_ms", ["features.encode"], lambda: total_ms("features.encode"))
    put("attention.overlap_head_ms", ["attention.overlap_scores"],
        lambda: total_ms("attention.overlap_scores"))
    put("attention.self_ms", ["attention.clustered_self_attention"],
        lambda: total_ms("attention.clustered_self_attention"))
    put("attention.cross_ms", ["attention.clustered_cross_attention"],
        lambda: total_ms("attention.clustered_cross_attention"))
    put("mixture.moments_ms", ["mixture.estimate_gmm"], lambda: total_ms("mixture.estimate_gmm"))
    put("mixture.procrustes_ms", ["mixture.weighted_svd"], lambda: total_ms("mixture.weighted_svd"))
    nn = "geometry.nearest_neighbors"
    put("geometry.nn_ms", [nn], lambda: total_ms(nn))
    put("geometry.nn_queries", [nn], lambda: total_count(nn, "queries"))
    # Restart selection scores each start by a nearest-neighbor residual
    # called straight from register; ICP's lookups sit under the ICP span.
    register_ids = {s.span_id for s in of(REGISTER)}
    put("registration.restart_select_ms", [nn],
        lambda: per_pair(sum(s.ms for s in of(nn) if s.parent in register_ids)))
    out["registration.self_ms"] = per_pair(sum(own[s.span_id] for s in of(REGISTER)))
    icp = of(ICP)
    out["registration.icp_iterations"] = sum(s.counts["iterations"] for s in icp) / max(len(icp), 1)
    for layer in LAYERS:
        out[f"self_ms.{layer}"] = per_pair(
            sum(own[s.span_id] for s in spans if s.name.split(".")[0] == layer)
        )
    return out
