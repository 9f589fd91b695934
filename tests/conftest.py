"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
distances come from a haversine great-circle formula, assignments from
exhaustive permutation search, and kinematics from closed forms, so a bug
in the implementation cannot hide in its own test harness.
"""

from __future__ import annotations

import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from roadside_eval.core import (
    DataFrame,
    DataPoint,
    GeoPoint,
    LocalPoint,
    ProjectionContext,
    Recording,
    TrajectorySet,
    build_trajectory_set,
    from_frames,
    make_projection,
    project,
    time_span,
    unproject,
)
from roadside_eval.matching import FramePairing, solve_assignment

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# IUGG mean earth radius, meters; independent of the projection constants.
EARTH_RADIUS_M = 6371008.8

ORIGIN = GeoPoint(42.3, -83.7)


@pytest.fixture(scope="session")
def ctx() -> ProjectionContext:
    return make_projection(ORIGIN)


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector_was(request):
    """The cyclic collector switched on or off before the test, and restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance oracle."""
    phi1, phi2 = math.radians(a.lat_deg), math.radians(b.lat_deg)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon_deg - a.lon_deg)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def brute_force_assignment(cost) -> float:
    """Minimum total cost over every one-to-one pairing, via fsum.

    Enumerates all placements of min(rows, cols) pairs; exact for the
    small matrices used in tests.
    """
    n_rows = len(cost)
    n_cols = len(cost[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return 0.0
    best = math.inf
    if n_rows <= n_cols:
        for cols in itertools.permutations(range(n_cols), n_rows):
            total = math.fsum(cost[r][c] for r, c in enumerate(cols))
            if total < best:
                best = total
    else:
        for rows in itertools.permutations(range(n_rows), n_cols):
            total = math.fsum(cost[r][c] for c, r in enumerate(rows))
            if total < best:
                best = total
    return best


def dp(
    t: float,
    x: float,
    y: float,
    ctx: ProjectionContext,
    category: str = "vehicle",
    object_id: str = "veh-01",
) -> DataPoint:
    """DataPoint at local plane coordinates (x, y) meters."""
    return DataPoint(t, unproject(LocalPoint(x, y), ctx), category, object_id)


def line_points(
    ctx: ProjectionContext,
    t0: float = 1000.0,
    n: int = 50,
    dt: float = 0.1,
    x0: float = 0.0,
    vx: float = 10.0,
    y: float = 0.0,
    category: str = "vehicle",
    object_id: str = "veh-01",
) -> list[DataPoint]:
    """Constant-velocity sample train along x, an exact kinematic input."""
    return [
        dp(t0 + k * dt, x0 + vx * k * dt, y, ctx, category, object_id)
        for k in range(n)
    ]


def swap_object_ids(
    ts: TrajectorySet, id_a: str, id_b: str, from_time_s: float
) -> TrajectorySet:
    """Swap two reported ids for every point at or after from_time_s.

    Deterministic counterpart of the id_switch_prob mechanism, for tests
    that need a switch at a known instant.
    """
    swap = {id_a: id_b, id_b: id_a}
    frames = []
    for f in ts.frames:
        pts = tuple(
            DataPoint(
                p.timestamp_s,
                p.position,
                p.category,
                swap.get(p.object_id, p.object_id)
                if p.timestamp_s >= from_time_s
                else p.object_id,
            )
            for p in f.points
        )
        frames.append(DataFrame(f.timestamp_s, pts))
    return from_frames(frames, ts.source)


# The scoring entry points take what the pipeline hands them: a Recording,
# as read_points returns it, and a FramePairing, as match_frames_by_time
# returns it. Tests that start from points or frames reach them through
# these helpers.


def recorded(points) -> Recording:
    """The points as a Recording, coded here rather than by the library."""
    cats = sorted({p.category for p in points})
    ids = sorted({p.object_id for p in points})
    t, lat, lon = (np.array(v, float) for v in (
        [p.timestamp_s for p in points],
        [p.position.lat_deg for p in points],
        [p.position.lon_deg for p in points],
    ))
    return Recording(t, lat, lon, np.array([cats.index(p.category) for p in points], np.intp), cats,
                     np.array([ids.index(p.object_id) for p in points], np.intp), ids)


def grouped(points, source: str = "detection") -> TrajectorySet:
    """The points grouped into a set, as build_trajectory_set groups a recording."""
    return build_trajectory_set(recorded(points), source)


def paired(frame_pairs) -> FramePairing:
    """Explicit (detection, gt) frame pairs as a pairing of two sets of
    those frames, frame k with frame k."""
    det = TrajectorySet(tuple(df for df, _ in frame_pairs), "detection")
    gt = TrajectorySet(tuple(gf for _, gf in frame_pairs), "ground_truth")
    k = np.arange(len(frame_pairs))
    return FramePairing(det, gt, k, k, k[:0])


# project, time_span and solve_assignment take arrays, as the pipeline
# calls them. Tests of one point, one range or one matrix reach them
# through these helpers.


def projected(p: GeoPoint, ctx: ProjectionContext) -> LocalPoint:
    """One point's plane coordinates, as floats."""
    x, y = project(GeoPoint(np.array([p.lat_deg]), np.array([p.lon_deg])), ctx)
    return LocalPoint(x.item(), y.item())


def span(times, t0: float, t1: float) -> tuple[int, int]:
    """time_span's one range over all of times, as ints."""
    i, j = time_span(times, t0, t1, np.array([0]), np.array([len(times)]))
    return i.item(), j.item()


def assigned(cost) -> tuple[tuple[int, int], ...]:
    """One cost matrix's pairs as (row, column) tuples in row order: its
    frame of solve_assignment's answer for a stack of that matrix alone."""
    rows, cols = solve_assignment(np.asarray(cost, dtype=float)[None])
    return tuple(zip(rows[0].tolist(), cols[0].tolist()))
