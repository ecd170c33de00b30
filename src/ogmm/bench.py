"""Benchmark harness: sweep configuration, pair generation, scoring, plots.

A sweep is the cross product of overlap fractions and component counts; each
cell runs `trials` seeded pairs through every requested method. Cells run
one after another and rows are emitted in (cell, trial, method) order, so a
re-run with the same config is byte-identical apart from measured runtimes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .geometry import DegenerateGeometryError, apply_transform, as_integer
from .io import SHAPE_KINDS, PairSpec, make_pair, write_cloud
from .metrics import (
    ccd,
    geodesic_rotation_deg,
    mae_rotation,
    mae_translation,
    near_gimbal_lock,
)
from .registration import RegisterConfig, icp_baseline, register

METHODS = ("ogmm", "ogmm_unguided", "ogmm_oracle_overlap", "icp")

CSV_COLUMNS = (
    "method", "overlap_fraction", "n_components", "noise_sigma", "density_keep",
    "trial", "pair_id", "seed", "mae_r_deg", "mae_t", "ccd", "geodesic_deg",
    "runtime_ms", "error",
)
CSV_HEADER = ",".join(CSV_COLUMNS)
METRIC_COLUMNS = ("mae_r_deg", "mae_t", "ccd", "geodesic_deg", "runtime_ms")

# The RegisterConfig fields each pipeline arm fixes; the cell sets
# n_components and the oracle arm also passes the ground-truth labels.
_ARM_SETTINGS = {
    "ogmm": {"overlap_mode": "predicted"},
    "ogmm_unguided": {"overlap_mode": "ones"},
    "ogmm_oracle_overlap": {},
}


class BenchConfigError(ValueError):
    pass


class BenchDataError(ValueError):
    pass


@dataclass(frozen=True)
class BenchConfig:
    """Sweep axes, pair protocol, and pipeline settings for one benchmark run.

    Defaults are the full-scale protocol; desk() swaps in a small profile
    that finishes in seconds. cluster_counts sweeps the number of mixture
    components per cell, overriding register.n_components. noise_sigma 0
    and density_keep 1 leave the clouds unjittered and at full density;
    noise_sigma=0.01 and density_keep=0.5 give the jitter and density
    protocols. The pair fields are validated by PairSpec.
    """

    overlap_fractions: tuple = (0.7, 0.6, 0.5, 0.4, 0.3)
    cluster_counts: tuple = (8, 16, 32, 48, 64)
    noise_sigma: float = 0.0
    density_keep: float = 1.0
    trials: int = 20
    n_points: int = 1024
    shape_kind: str = "composite"
    methods: tuple = METHODS
    base_seed: int = 0
    register: RegisterConfig = field(default_factory=RegisterConfig)

    def __post_init__(self):
        for name in ("methods", "overlap_fractions", "cluster_counts"):
            if isinstance(getattr(self, name), str):
                raise BenchConfigError(f"{name} must be a list")
        object.__setattr__(self, "overlap_fractions", tuple(float(v) for v in self.overlap_fractions))
        counts = (as_integer(c, "a cluster count", BenchConfigError) for c in self.cluster_counts)
        object.__setattr__(self, "cluster_counts", tuple(counts))
        for name in ("trials", "n_points", "base_seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, BenchConfigError))
        object.__setattr__(self, "methods", tuple(str(m) for m in self.methods))
        if not self.overlap_fractions or not self.cluster_counts:
            raise BenchConfigError("sweep ranges must be non-empty")
        if any(not (0.0 < v <= 1.0) for v in self.overlap_fractions):
            raise BenchConfigError("overlap fractions must lie in (0, 1]")
        if any(c < 1 for c in self.cluster_counts):
            raise BenchConfigError("cluster counts must be positive")
        if not self.methods:
            raise BenchConfigError("at least one method is required")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise BenchConfigError(f"unknown methods: {sorted(unknown)}")
        if self.trials < 1:
            raise BenchConfigError("trials must be at least 1")
        if self.shape_kind not in SHAPE_KINDS:
            raise BenchConfigError(f"shape_kind must be one of {SHAPE_KINDS}")
        try:
            self.pair_spec(self.cells()[0], 0)
        except ValueError as exc:
            raise BenchConfigError(f"invalid pair protocol: {exc}") from exc

    @classmethod
    def desk(cls, **overrides) -> "BenchConfig":
        params = {
            "overlap_fractions": (0.7, 0.5, 0.3),
            "cluster_counts": (8, 16),
            "trials": 3,
            "n_points": 256,
            "register": RegisterConfig.desk(),
        }
        params.update(overrides)
        return cls(**params)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:12]

    def cells(self) -> list:
        combos = itertools.product(self.overlap_fractions, self.cluster_counts)
        return [BenchCell(i, o, c) for i, (o, c) in enumerate(combos)]

    def pair_spec(self, cell: "BenchCell", trial: int) -> PairSpec:
        seq = np.random.SeedSequence(self.base_seed, spawn_key=(cell.index, trial))
        return PairSpec(
            n_points=self.n_points,
            overlap_keep_fraction=cell.overlap_fraction,
            jitter_sigma=self.noise_sigma,
            density_keep=self.density_keep,
            seed=int(seq.generate_state(1)[0]),
        )


@dataclass(frozen=True)
class BenchCell:
    index: int
    overlap_fraction: float
    n_components: int


def config_from_dict(data: dict, base: BenchConfig = None) -> BenchConfig:
    """Overlay a parsed JSON config onto a base profile."""
    if not isinstance(data, dict):
        raise BenchConfigError("config must be a JSON object")
    base = base if base is not None else BenchConfig()
    data = dict(data)
    register_cfg = base.register
    if "register" in data:
        sub = data.pop("register")
        if not isinstance(sub, dict):
            raise BenchConfigError("register section must be an object")
        known = {f.name for f in fields(RegisterConfig)}
        unknown = set(sub) - known
        if unknown:
            raise BenchConfigError(f"unknown register keys: {sorted(unknown)}")
        try:
            register_cfg = replace(register_cfg, **sub)
        except (TypeError, ValueError) as exc:
            raise BenchConfigError(f"invalid register config: {exc}") from exc
    known = {f.name for f in fields(BenchConfig)} - {"register"}
    unknown = set(data) - known
    if unknown:
        raise BenchConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return replace(base, register=register_cfg, **data)
    except (TypeError, ValueError) as exc:
        raise BenchConfigError(f"invalid config: {exc}") from exc


def _estimate(method: str, pair, cfg: RegisterConfig):
    """Run one method, timing only the solve; returns (transform, runtime
    ms, converged), converged being ICP's flag and None for the other
    methods."""
    if method == "icp":
        start = time.perf_counter()
        transform, diagnostics = icp_baseline(pair.source, pair.target, return_diagnostics=True)
        return transform, (time.perf_counter() - start) * 1000.0, diagnostics["converged"]
    cfg = replace(cfg, **_ARM_SETTINGS[method])
    overrides = {}
    if method == "ogmm_oracle_overlap":
        overrides = {
            "overlap_source": pair.gt_overlap_source.astype(np.float64),
            "overlap_target": pair.gt_overlap_target.astype(np.float64),
        }
    start = time.perf_counter()
    result = register(pair.source, pair.target, cfg, **overrides)
    return result.transform, (time.perf_counter() - start) * 1000.0, None


def _cell_pairs(config: BenchConfig, cell: BenchCell):
    """Yield (trial, pair_id, pair) for each seeded trial of a cell."""
    for trial in range(config.trials):
        pair = make_pair(config.pair_spec(cell, trial), config.shape_kind)
        yield trial, f"c{cell.index:03d}t{trial:03d}", pair


def _run_cell(config: BenchConfig, cell: BenchCell) -> list:
    """One row per (trial, method). A failed row keeps its exception text
    under "message", and an icp row whether ICP converged within its
    iteration budget under "converged" (None elsewhere); the summary
    reports both and the CSV leaves them out."""
    rows = []
    reg_cfg = replace(config.register, n_components=cell.n_components)
    for trial, pair_id, pair in _cell_pairs(config, cell):
        for method in config.methods:
            row = {
                "method": method,
                "overlap_fraction": cell.overlap_fraction,
                "n_components": cell.n_components,
                "noise_sigma": pair.spec.jitter_sigma,
                "density_keep": pair.spec.density_keep,
                "trial": trial,
                "pair_id": pair_id,
                "seed": pair.spec.seed,
                **dict.fromkeys(METRIC_COLUMNS),
                "error": "",
                "message": "",
                "gimbal_suspect": False,
                "converged": None,
            }
            try:
                transform, runtime_ms, converged = _estimate(method, pair, reg_cfg)
            except DegenerateGeometryError as exc:
                row["error"], row["message"] = "degenerate", str(exc)
            except ValueError as exc:
                row["error"], row["message"] = "invalid", str(exc)
            else:
                row["mae_r_deg"] = mae_rotation(transform, pair.gt_transform)
                row["mae_t"] = mae_translation(transform, pair.gt_transform)
                row["ccd"] = ccd(apply_transform(transform, pair.source), pair.target)
                row["geodesic_deg"] = geodesic_rotation_deg(transform, pair.gt_transform)
                row["runtime_ms"] = runtime_ms
                row["converged"] = converged
                row["gimbal_suspect"] = near_gimbal_lock(transform) or near_gimbal_lock(
                    pair.gt_transform
                )
            rows.append(row)
    return rows


def run_bench(config: BenchConfig) -> tuple:
    """Execute the sweep cell by cell; returns (rows, summary)."""
    rows = [row for cell in config.cells() for row in _run_cell(config, cell)]
    return rows, summarize(config, rows)


def summarize(config: BenchConfig, rows: list) -> dict:
    cells = []
    for cell in config.cells():
        cell_rows = [
            r for r in rows
            if r["overlap_fraction"] == cell.overlap_fraction
            and r["n_components"] == cell.n_components
        ]
        methods = {}
        for method in config.methods:
            scored = [r for r in cell_rows if r["method"] == method and not r["error"]]
            failed = [r for r in cell_rows if r["method"] == method and r["error"]]
            entry = {
                "n": len(scored),
                "errors": len(failed),
                "failures": [
                    {k: r[k] for k in ("pair_id", "error", "message")} for r in failed
                ],
                "gimbal_suspect": sum(1 for r in scored if r["gimbal_suspect"]),
            }
            if method == "icp":
                entry["unconverged"] = sum(1 for r in scored if not r["converged"])
            for column in METRIC_COLUMNS:
                values = [r[column] for r in scored]
                entry[f"mean_{column}"] = float(np.mean(values)) if values else None
            methods[method] = entry
        cells.append(
            {
                "cell": cell.index,
                "overlap_fraction": cell.overlap_fraction,
                "n_components": cell.n_components,
                "methods": methods,
            }
        )
    return {
        "config": config.to_json_dict(),
        "config_hash": config.config_hash(),
        "rows": len(rows),
        "errors": sum(1 for r in rows if r["error"]),
        "cells": cells,
    }


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_csv(rows: list) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_csv_value(row[column]) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_bench_csv(path, rows: list) -> None:
    Path(path).write_text(format_csv(rows), encoding="ascii")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


def genpairs(config: BenchConfig, out_dir) -> dict:
    """Write every sweep pair to disk with its ground truth; returns the
    manifest (also written as manifest.json)."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for cell in config.cells():
        for _, pair_id, pair in _cell_pairs(config, cell):
            pair_dir = root / f"pair_{pair_id}"
            pair_dir.mkdir(exist_ok=True)
            write_cloud(pair.source, pair_dir / "source.ply")
            write_cloud(pair.target, pair_dir / "target.ply")
            gt = {
                "rotation": pair.gt_transform.rotation.ravel().tolist(),
                "translation": pair.gt_transform.translation.tolist(),
                "seed": pair.spec.seed,
                "overlap_fraction": cell.overlap_fraction,
            }
            write_json(pair_dir / "gt.json", gt)
            labels = {
                "source": pair.gt_overlap_source.tolist(),
                "target": pair.gt_overlap_target.tolist(),
            }
            write_json(pair_dir / "labels.json", labels)
            entries.append(
                {
                    "pair_id": pair_id,
                    "path": pair_dir.name,
                    "seed": pair.spec.seed,
                    "overlap_fraction": cell.overlap_fraction,
                    "n_components": cell.n_components,
                }
            )
    manifest = {
        "config": config.to_json_dict(),
        "config_hash": config.config_hash(),
        "pair_count": len(entries),
        "pairs": entries,
    }
    write_json(root / "manifest.json", manifest)
    return manifest


def _parse_bench_csv(path) -> list:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise BenchDataError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise BenchDataError("malformed CSV: unexpected header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise BenchDataError(f"malformed CSV: wrong field count on line {lineno}")
        rows.append(dict(zip(CSV_COLUMNS, parts)))
    return rows


def _aggregate(rows: list, axis: str) -> dict:
    """(row count, mean metrics) grouped by (axis value, method) over
    scored rows."""
    groups = {}
    for row in rows:
        try:
            key = (float(row[axis]), row["method"])
            values = [float(row[column]) for column in METRIC_COLUMNS]
        except ValueError as exc:
            raise BenchDataError(f"malformed CSV: non-numeric field ({exc})") from exc
        groups.setdefault(key, []).append(values)
    return {
        key: (len(stack), np.asarray(stack).mean(axis=0))
        for key, stack in sorted(groups.items())
    }


_PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#8250df", "#bc4c00", "#57606a")


def _svg_line_chart(title: str, xlabel: str, ylabel: str, series: dict) -> str:
    """Minimal line chart: one polyline plus markers per series."""
    width, height = 640, 420
    left, right, top, bottom = 80, 620, 50, 360
    xs = [x for points in series.values() for x, _ in points]
    ys = [y for points in series.values() for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        pad = abs(y_hi) * 0.1 or 0.5
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(y):
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) / 2:.1f}" y="{bottom + 36}" text-anchor="middle">{xlabel}</text>',
        f'<text x="20" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.1f})">{ylabel}</text>',
    ]
    for value, anchor in ((x_lo, "start"), (x_hi, "end")):
        parts.append(
            f'<text x="{sx(value):.1f}" y="{bottom + 18}" text-anchor="{anchor}">{value:.4g}</text>'
        )
    for value in (y_lo, y_hi):
        parts.append(
            f'<text x="{left - 8}" y="{sy(value) + 4:.1f}" text-anchor="end">{value:.4g}</text>'
        )
    for rank, (name, points) in enumerate(series.items()):
        color = _PALETTE[rank % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in points:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{right - 4}" y="{top + 16 + 16 * rank}" text-anchor="end" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def report(csv_path, out_dir) -> dict:
    """Aggregate a bench CSV per sweep axis and draw one chart per metric."""
    rows = _parse_bench_csv(csv_path)
    data_rows = [row for row in rows if not row["error"]]
    if not data_rows:
        raise BenchDataError("no data")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    axes = [
        axis
        for axis in ("overlap_fraction", "n_components")
        if len({row[axis] for row in data_rows}) > 1
    ] or ["overlap_fraction"]
    written = {"aggregates": [], "charts": []}
    for axis in axes:
        grouped = _aggregate(data_rows, axis)
        lines = [f"{axis},method,n," + ",".join(f"mean_{c}" for c in METRIC_COLUMNS)]
        for (value, method), (count, means) in grouped.items():
            cells = [repr(value), method, str(count)]
            cells.extend(repr(float(v)) for v in means)
            lines.append(",".join(cells))
        agg_path = root / f"by_{axis}.csv"
        agg_path.write_text("\n".join(lines) + "\n", encoding="ascii")
        written["aggregates"].append(str(agg_path))
        methods = sorted({method for _, method in grouped})
        for idx, metric in enumerate(METRIC_COLUMNS):
            series = {
                method: [
                    (value, float(means[idx]))
                    for (value, m), (_, means) in grouped.items()
                    if m == method
                ]
                for method in methods
            }
            chart = _svg_line_chart(f"{metric} vs {axis}", axis, metric, series)
            chart_path = root / f"{axis}_{metric}.svg"
            chart_path.write_text(chart, encoding="ascii")
            written["charts"].append(str(chart_path))
    return written
