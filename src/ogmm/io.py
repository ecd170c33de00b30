"""Cloud file formats, synthetic shape sampling, and pair generation.

File IO covers whitespace XYZ and ASCII PLY, the two formats the benchmark
writes. Shape samplers produce surface-uniform clouds scaled to unit max
radius so every downstream tolerance can assume desk-scale coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    COORDINATE_BOUND,
    ROT_MAX_DEG,
    TRANS_MAX,
    PointCloud,
    RigidTransform,
    apply_transform,
    as_integer,
    invert,
    nearest_neighbors,
    random_transform,
    transform_points,
)

SHAPE_KINDS = ("sphere", "torus", "box", "composite")
# The pair protocol's jitter clamp and overlap label radius, as in RPM-Net's
# partial-registration protocol; geometry holds its motion range.
JITTER_CLIP = 0.05
OVERLAP_ETA = 0.1

# PLY scalar types whose columns we can parse as floats.
_PLY_NUMERIC = {
    "char", "uchar", "short", "ushort", "int", "uint",
    "int8", "uint8", "int16", "uint16", "int32", "uint32",
    "float", "double", "float32", "float64",
}


class CloudParseError(ValueError):
    """Malformed cloud file; the message carries path and line number."""


def _parse_error(path, lineno: int, detail: str) -> CloudParseError:
    return CloudParseError(f"{path}:{lineno}: {detail}")


def _cloud_format(path: str, error: type) -> str:
    """"xyz" or "ply" by the file extension; any other extension raises
    `error` (CloudParseError on read, ValueError on write)."""
    lowered = path.lower()
    for fmt in ("xyz", "ply"):
        if lowered.endswith("." + fmt):
            return fmt
    raise error(f"{path}: cannot infer format from extension")


def read_cloud(path) -> PointCloud:
    """Load a cloud from an .xyz or ASCII .ply file, by its extension.

    Parse failures, including a non-ASCII byte, a nan or inf coordinate and
    one beyond geometry.COORDINATE_BOUND in magnitude, raise CloudParseError
    with the offending line.
    """
    path = str(path)
    if _cloud_format(path, CloudParseError) == "xyz":
        return _read_xyz(path)
    return _read_ply(path)


def _read_lines(path: str) -> list:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise _parse_error(path, lineno, f"non-ASCII byte {raw[exc.start]:#04x}") from None


def _coordinates(tokens: list, path: str, lineno: int) -> list:
    try:
        point = [float(tok) for tok in tokens]
    except ValueError:
        raise _parse_error(path, lineno, f"non-numeric coordinate in {tokens}") from None
    if not all(map(math.isfinite, point)):
        raise _parse_error(path, lineno, f"non-finite coordinate in {tokens}")
    if max(map(abs, point)) > COORDINATE_BOUND:
        raise _parse_error(path, lineno, f"coordinate beyond {COORDINATE_BOUND:g} in {tokens}")
    return point


def _read_xyz(path: str) -> PointCloud:
    rows = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise _parse_error(path, lineno, f"expected 3 values, got {len(tokens)}")
        rows.append(_coordinates(tokens, path, lineno))
    if not rows:
        raise CloudParseError(f"{path}: file contains no points")
    return PointCloud(np.array(rows, dtype=np.float64))


def _read_ply(path: str) -> PointCloud:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "ply":
        raise _parse_error(path, 1, "missing 'ply' magic line")

    # Header scan: collect (element, count) in declaration order plus the
    # vertex property names.
    elements: list[tuple[str, int]] = []
    vertex_props: list[str] = []
    saw_format = False
    end_header = None
    lineno = 1
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise _parse_error(path, lineno, f"unsupported format {' '.join(tokens[1:])!r}")
            saw_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise _parse_error(path, lineno, "malformed element declaration")
            try:
                count = int(tokens[2])
            except ValueError:
                raise _parse_error(path, lineno, f"bad element count {tokens[2]!r}") from None
            if count < 0:
                raise _parse_error(path, lineno, f"negative element count {count}")
            elements.append((tokens[1], count))
        elif tokens[0] == "property":
            if not elements:
                raise _parse_error(path, lineno, "property before any element")
            if elements[-1][0] == "vertex":
                if len(tokens) < 3 or tokens[1] == "list":
                    raise _parse_error(path, lineno, "vertex properties must be scalars")
                if tokens[1] not in _PLY_NUMERIC:
                    raise _parse_error(path, lineno, f"unsupported property type {tokens[1]!r}")
                if tokens[2] in vertex_props:
                    raise _parse_error(path, lineno, f"repeated vertex property {tokens[2]!r}")
                vertex_props.append(tokens[2])
        elif tokens[0] == "end_header":
            end_header = lineno
            break
        else:
            raise _parse_error(path, lineno, f"unexpected header keyword {tokens[0]!r}")
    if end_header is None:
        raise _parse_error(path, lineno, "missing end_header")
    if not saw_format:
        raise _parse_error(path, 2, "missing format declaration")
    if "vertex" not in [name for name, _ in elements]:
        raise _parse_error(path, end_header, "no vertex element declared")
    missing = {"x", "y", "z"} - set(vertex_props)
    if missing:
        raise _parse_error(path, end_header, f"vertex element lacks properties {sorted(missing)}")

    data_lines = lines[end_header:]
    cursor = 0
    points = None
    for name, count in elements:
        if cursor + count > len(data_lines):
            raise _parse_error(
                path, end_header + len(data_lines), f"element {name!r} declares {count} rows but file ends early"
            )
        if name == "vertex":
            cols = [vertex_props.index(prop) for prop in ("x", "y", "z")]
            rows = np.empty((count, 3), dtype=np.float64)
            for i in range(count):
                lineno = end_header + cursor + i + 1
                tokens = data_lines[cursor + i].split()
                if len(tokens) != len(vertex_props):
                    raise _parse_error(
                        path, lineno, f"expected {len(vertex_props)} values, got {len(tokens)}"
                    )
                rows[i] = _coordinates([tokens[col] for col in cols], path, lineno)
            points = rows
        cursor += count
    assert points is not None
    if points.shape[0] == 0:
        raise CloudParseError(f"{path}: vertex element is empty")
    return PointCloud(points)


def write_cloud(cloud: PointCloud, path) -> None:
    """Write coordinates to .xyz or ASCII .ply by the path's extension."""
    path = str(path)
    fmt = _cloud_format(path, ValueError)
    # repr of a python float is the shortest exact round-trip form, which
    # keeps rewrites byte-identical and reads lossless.
    body = "\n".join(
        f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in cloud.points
    )
    if fmt == "xyz":
        text = body + "\n"
    else:
        header = "\n".join(
            [
                "ply",
                "format ascii 1.0",
                f"element vertex {len(cloud)}",
                "property double x",
                "property double y",
                "property double z",
                "end_header",
            ]
        )
        text = header + "\n" + body + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _scale_to_unit_radius(points: np.ndarray) -> np.ndarray:
    radius = np.max(np.linalg.norm(points, axis=1))
    return points / radius


def _sample_sphere(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # Resample the (measure-zero) degenerate draws instead of dividing by ~0.
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def _sample_torus(rng, n: int, major: float = 1.0, minor: float = 0.4) -> np.ndarray:
    # Area-uniform sampling: accept the tube angle v with probability
    # proportional to the local circumference major + minor*cos(v).
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        u = rng.uniform(0.0, 2.0 * np.pi, size=m)
        v = rng.uniform(0.0, 2.0 * np.pi, size=m)
        accept = rng.uniform(0.0, 1.0, size=m) <= (major + minor * np.cos(v)) / (major + minor)
        u, v = u[accept], v[accept]
        take = min(len(u), n - filled)
        ring = major + minor * np.cos(v[:take])
        out[filled : filled + take, 0] = ring * np.cos(u[:take])
        out[filled : filled + take, 1] = ring * np.sin(u[:take])
        out[filled : filled + take, 2] = minor * np.sin(v[:take])
        filled += take
    return out


def _sample_box(rng, n: int, half_extents=(1.0, 1.0, 1.0)) -> np.ndarray:
    hx, hy, hz = half_extents
    areas = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy])
    face = rng.choice(6, size=n, p=areas / areas.sum())
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    half = np.array(half_extents)
    for a in range(3):
        mask = axis == a
        others = [b for b in range(3) if b != a]
        pts[mask, a] = sign[mask] * half[a]
        pts[np.ix_(mask, others)] = uv[mask] * half[others]
    return pts


def _sample_composite(rng, n: int) -> np.ndarray:
    """Union of a box, an off-center sphere, and an off-center torus.

    The parts are placed asymmetrically so the union has no nontrivial rigid
    symmetry; a registration problem on this shape has a unique solution.
    """
    n_box = int(round(0.4 * n))
    n_sph = int(round(0.3 * n))
    n_tor = n - n_box - n_sph
    parts = []
    if n_box:
        parts.append(_sample_box(rng, n_box, half_extents=(1.0, 0.6, 0.4)))
    if n_sph:
        parts.append(0.5 * _sample_sphere(rng, n_sph) + np.array([0.9, 0.5, 0.45]))
    if n_tor:
        tor = _sample_torus(rng, n_tor, major=0.5, minor=0.15)
        parts.append(tor + np.array([-0.8, -0.5, 0.1]))
    pts = np.concatenate(parts, axis=0)
    return pts - pts.mean(axis=0)


def sample_shape(kind: str, n: int, seed: int) -> PointCloud:
    """Surface-uniform cloud of one of the synthetic shapes.

    The cloud is centered at the origin by construction (the composite is
    recentered on its sample mean) and scaled so the farthest point sits at
    radius exactly 1. Same (kind, n, seed) always returns the same cloud.
    """
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}, expected one of {SHAPE_KINDS}")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        pts = _sample_sphere(rng, n)
    elif kind == "torus":
        pts = _sample_torus(rng, n)
    elif kind == "box":
        pts = _sample_box(rng, n)
    else:
        pts = _sample_composite(rng, n)
    return PointCloud(_scale_to_unit_radius(pts))


def halfspace_crop(cloud: PointCloud, keep_fraction: float, seed: int) -> PointCloud:
    """Keep the ceil(keep_fraction * N) points deepest along a seeded direction.

    Original point order is preserved.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError("keep_fraction must lie in (0, 1]")
    n = len(cloud)
    m = math.ceil(keep_fraction * n)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    norm = np.linalg.norm(direction)
    while norm < 1e-12:
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
    direction /= norm
    scores = cloud.points @ direction
    keep = np.sort(np.argsort(-scores, kind="stable")[:m])
    return cloud.select(keep)


def jitter_points(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    """Add truncated Gaussian noise: draw N(0, sigma), clamp to +/- JITTER_CLIP."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be finite and non-negative")
    if sigma == 0.0:
        return cloud
    rng = np.random.default_rng(seed)
    noise = np.clip(rng.normal(0.0, sigma, size=cloud.points.shape), -JITTER_CLIP, JITTER_CLIP)
    return PointCloud(cloud.points + noise)


def density_subsample(cloud: PointCloud, density_keep: float, seed: int) -> PointCloud:
    """Random subset of exactly ceil(density_keep * N) points, order preserved."""
    if not (0.0 < density_keep <= 1.0):
        raise ValueError("density_keep must lie in (0, 1]")
    if density_keep == 1.0:
        return cloud
    n = len(cloud)
    m = math.ceil(density_keep * n)
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=m, replace=False))
    return cloud.select(keep)


def gt_overlap_labels(
    source: PointCloud, target: PointCloud, gt_transform: RigidTransform, eta: float = OVERLAP_ETA
) -> np.ndarray:
    """Per-source-point overlap label: 1 iff the transformed point lands
    strictly within eta of some target point."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    moved = transform_points(gt_transform, source.points)
    _, dists = nearest_neighbors(moved, target)
    return (dists < eta).astype(np.uint8)


@dataclass(frozen=True)
class PairSpec:
    """The settings that vary between synthetic registration pairs.

    Defaults reproduce the standard protocol: 1024 points, ~70% kept per
    cloud, no jitter, no density mismatch. The motion range, jitter clamp
    and overlap label radius are protocol constants.
    """

    n_points: int = 1024
    overlap_keep_fraction: float = 0.7
    jitter_sigma: float = 0.0
    density_keep: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_points", as_integer(self.n_points, "n_points"))
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
        if not (0.0 < self.overlap_keep_fraction <= 1.0):
            raise ValueError("overlap_keep_fraction must lie in (0, 1]")
        if not (0.0 < self.density_keep <= 1.0):
            raise ValueError("density_keep must lie in (0, 1]")
        if not (math.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise ValueError("jitter_sigma must be finite and non-negative")


@dataclass(frozen=True)
class RegistrationPair:
    """A generated pair plus its ground truth.

    gt_transform maps source coordinates into the target frame. The overlap
    label vectors are recomputable from the final clouds and gt_transform;
    they are stored so consumers need not redo the nearest-neighbor pass.
    """

    source: PointCloud
    target: PointCloud
    gt_transform: RigidTransform
    gt_overlap_source: np.ndarray
    gt_overlap_target: np.ndarray
    spec: PairSpec = field(default_factory=PairSpec)

    def __post_init__(self):
        for name, labels, cloud in (
            ("gt_overlap_source", self.gt_overlap_source, self.source),
            ("gt_overlap_target", self.gt_overlap_target, self.target),
        ):
            arr = np.asarray(labels, dtype=np.uint8)
            if arr.shape != (len(cloud),):
                raise ValueError(f"{name} must have shape ({len(cloud)},), got {arr.shape}")
            if not np.all((arr == 0) | (arr == 1)):
                raise ValueError(f"{name} must be binary")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def make_pair(spec: PairSpec, shape_kind: str = "composite") -> RegistrationPair:
    """Generate one seeded registration pair.

    Protocol: sample the shape twice with distinct sub-seeds, crop each with
    its own random halfspace, move the target by a random rigid transform,
    then apply jitter to both sides and density subsampling to the target.
    Overlap labels are evaluated on the final clouds.
    """
    sub = np.random.SeedSequence(spec.seed).generate_state(8)
    source = sample_shape(shape_kind, spec.n_points, int(sub[0]))
    target = sample_shape(shape_kind, spec.n_points, int(sub[1]))
    source = halfspace_crop(source, spec.overlap_keep_fraction, int(sub[2]))
    target = halfspace_crop(target, spec.overlap_keep_fraction, int(sub[3]))
    gt = random_transform(int(sub[4]), ROT_MAX_DEG, TRANS_MAX)
    target = apply_transform(gt, target)
    source = jitter_points(source, spec.jitter_sigma, int(sub[5]))
    target = jitter_points(target, spec.jitter_sigma, int(sub[6]))
    target = density_subsample(target, spec.density_keep, int(sub[7]))
    labels_source = gt_overlap_labels(source, target, gt, OVERLAP_ETA)
    labels_target = gt_overlap_labels(target, source, invert(gt), OVERLAP_ETA)
    return RegistrationPair(source, target, gt, labels_source, labels_target, spec)
