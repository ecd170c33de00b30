"""Shared pytest setup.

BLAS thread pools are pinned to one thread before numpy loads anywhere in
the session: the acceptance suite asserts a single-threaded runtime budget
and compares wall-clock ratios, both meaningless under uncapped pools.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import pytest  # noqa: E402  (env caps must precede any numpy import)

ACCEPTANCE_RESULTS = {}


@pytest.fixture
def criterion():
    """Verdict recorder for the acceptance suite.

    Each check records its outcome before asserting, so the terminal
    summary lists failures alongside passes instead of going silent on the
    first broken criterion.
    """

    def check(number: int, label: str, passed, detail: str) -> None:
        ACCEPTANCE_RESULTS[number] = (label, bool(passed), detail)
        assert passed, f"acceptance {number} ({label}): {detail}"

    return check


@pytest.fixture
def tree_builds(monkeypatch):
    """Target sizes of the k-d trees geometry builds (for NeighborIndex,
    nearest_neighbors and tree_neighbors), in order."""
    from ogmm import geometry

    sizes = []
    real = geometry.cKDTree

    def recording(points, *args, **kwargs):
        sizes.append(len(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(geometry, "cKDTree", recording)
    return sizes


@pytest.fixture
def tree_query_rows(monkeypatch):
    """Row counts of the query blocks sent to the k-d trees geometry
    builds, in order."""
    from ogmm import geometry

    rows = []

    class Counting(geometry.cKDTree):
        def query(self, x, *args, **kwargs):
            rows.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(geometry, "cKDTree", Counting)
    return rows


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  {number:2d} {verdict}  {label}: {detail}")
