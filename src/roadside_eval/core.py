"""Core data model: points, frames, trajectories, and a local tangent plane.

A recording from either a perception system or an RTK-GPS logger reduces to
a list of :class:`DataPoint` (timestamp, position, category, object id).
Points grouped by time form a :class:`DataFrame`, and a
:class:`TrajectorySet` holds a recording's frames in time order. Its
trajectory view, points grouped by object id into :class:`Trajectory`, is
built from the frames on first use: scoring reads frames only, and a
detector without a tracker gives one trajectory per point.

All distances downstream are planar meters, so geographic coordinates are
projected once onto an equirectangular tangent plane anchored at a trial-site
origin. Trials span well under a kilometer, where this projection is accurate
to small fractions of the 1.5 m match threshold.

Everything here is immutable after construction and safe to share across
threads; two threads that build the same on-demand view at once get equal
results.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import IntegrityError, ProjectionRangeError

VEHICLE = "vehicle"
PEDESTRIAN = "pedestrian"
CATEGORIES = (VEHICLE, PEDESTRIAN)

SOURCE_DETECTION = "detection"
SOURCE_GROUND_TRUTH = "ground_truth"

# Nominal meridional meter-per-degree scale of the tangent plane.
METERS_PER_DEG_LAT = 111_132.95

# Flat-earth validity radius for project(); beyond this the plane distorts.
MAX_PROJECTION_RANGE_M = 10_000.0

# Width of the time bins that group points into frames: tight enough that
# only genuinely simultaneous records share a frame.
FRAME_BIN_S = 0.001

_BY_TIME = attrgetter("timestamp_s")


class GeoPoint(NamedTuple):
    lat_deg: float
    lon_deg: float


class LocalPoint(NamedTuple):
    x_m: float
    y_m: float


@dataclass(frozen=True)
class ProjectionContext:
    """Equirectangular tangent plane anchored at ``origin``.

    x grows east, y grows north; both in meters.
    """

    origin: GeoPoint
    meters_per_deg_lat: float
    meters_per_deg_lon: float


class DataPoint(NamedTuple):
    """One measured object at one instant."""

    timestamp_s: float
    position: GeoPoint
    category: str
    object_id: str


class DataFrame(NamedTuple):
    """All points sharing one time instant (one output tick of a system).

    A frame may be empty: a perception system that reports nothing at a tick
    still occupies that tick, and missed-frame accounting depends on it.
    """

    timestamp_s: float
    points: tuple[DataPoint, ...]


@dataclass(frozen=True)
class Trajectory:
    """Points of one object id in strictly ascending time order."""

    object_id: str
    category: str
    points: tuple[DataPoint, ...]

    @cached_property
    def _geo(self) -> np.ndarray:
        """(n, 3) rows of (timestamp_s, lat_deg, lon_deg), built on first use."""
        n = len(self.points)
        flat = chain.from_iterable([(p.timestamp_s, *p.position) for p in self.points])
        return np.fromiter(flat, dtype=float, count=3 * n).reshape(n, 3)


@dataclass(frozen=True)
class TrajectorySet:
    """One recording: its frames in time order, and their points by object id.

    Invariant: both views contain exactly the same multiset of points
    (empty frames add nothing to either side). It holds by construction,
    because the trajectory view is grouped from the frames.
    """

    frames: tuple[DataFrame, ...]
    source: str

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """One trajectory per object id, in id order, each in time order.

        A trajectory's category is the one most of its points carry; a tie
        goes to the alphabetically first.
        """
        by_id: defaultdict[str, list[DataPoint]] = defaultdict(list)
        for f in self.frames:
            for p in f.points:
                by_id[p.object_id].append(p)
        trajectories = []
        for oid in sorted(by_id):
            pts = sorted(by_id[oid], key=_BY_TIME)
            counts = Counter(map(attrgetter("category"), pts))
            category = min(counts, key=lambda c: (-counts[c], c))
            trajectories.append(Trajectory(oid, category, tuple(pts)))
        return tuple(trajectories)

    @cached_property
    def categories(self) -> frozenset[str]:
        """The categories that occur in the recording."""
        return frozenset(p.category for f in self.frames for p in f.points)

    def all_points(self) -> list[DataPoint]:
        return [p for f in self.frames for p in f.points]


def validate_geo(p: GeoPoint) -> None:
    if not (-90.0 <= p.lat_deg <= 90.0):
        raise ValueError(f"latitude out of range: {p.lat_deg}")
    if not (-180.0 <= p.lon_deg <= 180.0):
        raise ValueError(f"longitude out of range: {p.lon_deg}")


def make_projection(origin: GeoPoint) -> ProjectionContext:
    """Build the local tangent plane centered at ``origin``."""
    validate_geo(origin)
    m_lon = METERS_PER_DEG_LAT * math.cos(math.radians(origin.lat_deg))
    return ProjectionContext(
        origin=origin,
        meters_per_deg_lat=METERS_PER_DEG_LAT,
        meters_per_deg_lon=m_lon,
    )


def project(p: GeoPoint, ctx: ProjectionContext) -> LocalPoint:
    """Map a geographic point to plane coordinates (east, north) in meters.

    A GeoPoint of equal-shape arrays maps to a LocalPoint of arrays, with
    the same arithmetic per element. Raises ProjectionRangeError beyond
    10 km from the origin, where the flat-earth assumption no longer holds;
    for arrays it names the first such point.
    """
    x = (p.lon_deg - ctx.origin.lon_deg) * ctx.meters_per_deg_lon
    y = (p.lat_deg - ctx.origin.lat_deg) * ctx.meters_per_deg_lat
    if isinstance(x, np.ndarray):
        far = np.flatnonzero(x * x + y * y > MAX_PROJECTION_RANGE_M * MAX_PROJECTION_RANGE_M)
        if not far.size:
            return LocalPoint(x, y)
        k = far[0]
        p = GeoPoint(float(p.lat_deg.flat[k]), float(p.lon_deg.flat[k]))
        x, y = float(x.flat[k]), float(y.flat[k])
    if x * x + y * y > MAX_PROJECTION_RANGE_M * MAX_PROJECTION_RANGE_M:
        raise ProjectionRangeError(
            f"point {p} is {math.hypot(x, y):.0f} m from the projection "
            f"origin; flat-plane validity ends at {MAX_PROJECTION_RANGE_M:.0f} m"
        )
    return LocalPoint(x, y)


def unproject(p: LocalPoint, ctx: ProjectionContext) -> GeoPoint:
    """Inverse of :func:`project`."""
    return GeoPoint(
        ctx.origin.lat_deg + p.y_m / ctx.meters_per_deg_lat,
        ctx.origin.lon_deg + p.x_m / ctx.meters_per_deg_lon,
    )


def build_trajectory_set(
    points: Iterable[DataPoint],
    source: str = SOURCE_DETECTION,
) -> TrajectorySet:
    """Group points by time into frames.

    Points whose timestamps fall into the same FRAME_BIN_S bin share a
    frame. The result is independent of input order: frames are ordered by
    time, and points within a frame by object id.

    Raises IntegrityError when one object id occurs twice in one frame bin;
    its ``records`` are the input positions of the two points.
    """
    pts = list(points)
    by_bin: dict[int, dict[str, int]] = {}
    for k, p in enumerate(pts):
        frame = by_bin.setdefault(round(p.timestamp_s / FRAME_BIN_S), {})
        first = frame.setdefault(p.object_id, k)
        if first != k:
            raise IntegrityError(
                f"duplicate record for object {p.object_id!r} in frame bin "
                f"around t={p.timestamp_s:.3f} s",
                records=(first, k),
            )

    frames = []
    for b in sorted(by_bin):
        members = [pts[k] for _, k in sorted(by_bin[b].items())]
        stamp = math.fsum(m.timestamp_s for m in members) / len(members)
        frames.append(DataFrame(stamp, tuple(members)))
    return from_frames(frames, source)


def from_frames(frames: Sequence[DataFrame], source: str) -> TrajectorySet:
    """Build a TrajectorySet from explicit frames, preserving empty ones."""
    return TrajectorySet(tuple(sorted(frames, key=_BY_TIME)), source)


def filter_category(ts: TrajectorySet, category: str) -> TrajectorySet:
    """Keep only points of one category.

    Frames are kept even when the filter empties them: the frame grid is the
    evaluation clock, and a tick on which a system reported only the other
    category still counts as a tick. A set that holds no other category is
    returned as it is.
    """
    if ts.categories <= {category}:
        return ts
    frames = tuple(
        DataFrame(f.timestamp_s, tuple(p for p in f.points if p.category == category))
        for f in ts.frames
    )
    return from_frames(frames, ts.source)


def trajectory_arrays(traj: Trajectory, ctx: ProjectionContext) -> tuple[np.ndarray, np.ndarray]:
    """Extract (times, xy) arrays for vectorized geometry on a trajectory."""
    raw = traj._geo
    times = raw[:, 0].copy()
    xy = np.empty((len(raw), 2))
    xy[:, 0] = (raw[:, 2] - ctx.origin.lon_deg) * ctx.meters_per_deg_lon
    xy[:, 1] = (raw[:, 1] - ctx.origin.lat_deg) * ctx.meters_per_deg_lat
    return times, xy


def slice_trajectory(traj: Trajectory, t0: float, t1: float) -> Trajectory | None:
    """Sub-trajectory with timestamps in [t0, t1], or None when empty."""
    pts = tuple(p for p in traj.points if t0 <= p.timestamp_s <= t1)
    if not pts:
        return None
    return Trajectory(traj.object_id, traj.category, pts)
