"""Core data model: points, frames, trajectories, and a local tangent plane.

A recording from either a perception system or an RTK-GPS logger is a
:class:`Recording`: its rows' (timestamp, lat, lon, category, object id),
one read-only array per field. build_trajectory_set groups it by time into
frames (:class:`DataFrame`, each a tuple of :class:`DataPoint`), and a
:class:`TrajectorySet` holds a recording's frames in time order and its
trajectories. Either view is given, and the other is grouped from it on
first use. Scoring reads a third view: the set's columns, a Recording of
its points in frame order, which its offsets cut into frames, so that
filter_category masks rows and matching gathers points by index.
build_trajectory_set hands over the sorted rows it grouped as the columns;
a filtered set groups its frames from its own columns on first read; a
set built from explicit frames builds its columns from them on first use.
The Monte Carlo replay reads trajectories only, so it never builds
columns. A :class:`Trajectory` is its rows: one object id's (time, lat,
lon) in time order, as one read-only array.
trajectory_arrays projects rows, of one trajectory or many laid end to
end, into plane tracks, which time_span cuts by index, many spans at
once.

All distances downstream are planar meters, so geographic coordinates are
projected once onto an equirectangular tangent plane anchored at a trial-site
origin. Trials span well under a kilometer, where this projection is accurate
to small fractions of the 1.5 m match threshold.

Everything here is immutable after construction and safe to share across
threads; two threads that build the same on-demand view at once get equal
results.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from operator import attrgetter, is_
from typing import Iterable, Iterator, NamedTuple, Sequence

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
_CATEGORY = attrgetter("category")
_OBJECT_ID = attrgetter("object_id")
_POSITION = attrgetter("position")
_POINTS = attrgetter("points")


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


@dataclass(frozen=True, eq=False)
class Recording:
    """Rows, one read-only array per field: each row's time, lat and lon,
    and its category and object id as codes into categories and ids, the
    distinct names among the rows in string order. len() counts the rows."""

    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    category: np.ndarray
    categories: list[str]
    ident: np.ndarray
    ids: list[str]

    def __post_init__(self) -> None:
        for column in (self.t, self.lat, self.lon, self.category, self.ident):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.t)

    def take(self, index: np.ndarray) -> Recording:
        """The rows at index, in its order, coded into the same names."""
        return Recording(self.t[index], self.lat[index], self.lon[index], self.category[index],
                         self.categories, self.ident[index], self.ids)

    def where(self, keep: np.ndarray) -> Recording:
        """The rows where keep is set, in order, with the codes renumbered
        over the names they use."""
        return Recording(self.t[keep], self.lat[keep], self.lon[keep],
                         *recode(self.category[keep], self.categories),
                         *recode(self.ident[keep], self.ids))

    def points(self) -> list[DataPoint]:
        """The rows as DataPoints, in order."""
        # names gathered as objects: the name strings themselves, in one pass
        return list(_bulk_points(np.stack((self.t, self.lat, self.lon), axis=1),
                                 np.array(self.categories, object)[self.category].tolist(),
                                 np.array(self.ids, object)[self.ident].tolist()))


def _as_recording(points: Sequence[DataPoint]) -> Recording:
    geo = np.fromiter(chain.from_iterable(map(_POSITION, points)), float, 2 * len(points))
    return Recording(np.fromiter(map(_BY_TIME, points), float, len(points)), geo[0::2], geo[1::2],
                     *string_codes(list(map(_CATEGORY, points))),
                     *string_codes(list(map(_OBJECT_ID, points))))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One object id's (n, 3) rows of (timestamp_s, lat_deg, lon_deg) in time order."""

    object_id: str
    category: str
    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows.flags.writeable = False


@dataclass(frozen=True)
class TrajectorySet:
    """One recording: its frames in time order, and their rows by object id.

    Either view is given, and the other is grouped from it on first use:
    the constructor and from_frames take frames, from_trajectories takes
    trajectories. The columns and their offsets are handed over whole by
    build_trajectory_set or filter_category, or else built from the
    frames on first read; so are the frame times. Equality and hashing
    compare frames and source.

    Invariant: each trajectory's rows are the (time, lat, lon) of exactly
    the frames' points with its id (empty frames add nothing). It holds by
    construction: one view is grouped from the other, or handed over by a
    builder that made the frames and the rows from the same data.
    """

    frames: tuple[DataFrame, ...]
    source: str

    def __getattr__(self, name: str) -> tuple[DataFrame, ...]:
        """The frames of a set from from_trajectories or filter_category,
        grouped on first read by the function that built the set left."""
        if name != "frames":
            raise AttributeError(name)
        self.__dict__["frames"] = self.__dict__["_grouping"]()
        return self.frames

    @cached_property
    def frame_times(self) -> np.ndarray:
        """The frames' timestamps in order, as one read-only array."""
        times = np.fromiter(map(_BY_TIME, self.frames), float, len(self.frames))
        times.flags.writeable = False
        return times

    @cached_property
    def offsets(self) -> np.ndarray:
        """Frame k's points are rows offsets[k]:offsets[k + 1] of the
        columns, as one read-only array."""
        offsets = np.cumsum([0, *map(len, map(_POINTS, self.frames))])
        offsets.flags.writeable = False
        return offsets

    @cached_property
    def columns(self) -> Recording:
        """The points in frame order, from one pass over the frames."""
        return _as_recording(self.all_points())

    @cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """One trajectory per object id, in id order, each in time order.

        A trajectory's category is the one most of its points carry; a tie
        goes to the alphabetically first. One stable sort on (id, time) of
        the rows in frame order makes each id one slice, and keeps points
        of equal time in frame order.
        """
        cols = self.columns
        if not cols.ids:
            return ()
        order = np.lexsort((cols.t, cols.ident))
        rows = np.stack([cols.t, cols.lat, cols.lon], axis=1)[order]
        rows.flags.writeable = False
        bounds = np.searchsorted(cols.ident[order], np.arange(len(cols.ids) + 1)).tolist()
        table = np.zeros((len(cols.ids), len(cols.categories)), np.intp)
        np.add.at(table, (cols.ident, cols.category), 1)
        majority = [cols.categories[c] for c in table.argmax(axis=1).tolist()]
        return tuple(Trajectory(oid, cat, rows[a:b])
                     for oid, cat, a, b in zip(cols.ids, majority, bounds, bounds[1:]))

    @cached_property
    def categories(self) -> frozenset[str]:
        """The categories that occur in the recording."""
        return frozenset(self.columns.categories)

    def _with_views(self, **views) -> TrajectorySet:
        """This set with views supplied by a caller that built them and the
        frames from the same points; each must equal the one grouped from
        the frames. Their arrays become read-only."""
        for view in views.values():
            if isinstance(view, np.ndarray):
                view.flags.writeable = False
        self.__dict__.update(views)
        return self

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
    """Map a GeoPoint of equal-shape arrays to a LocalPoint of plane
    coordinates (east, north) in meters, element by element.

    Raises ProjectionRangeError, naming the first such point, when a point
    lies beyond 10 km from the origin, where the flat-earth assumption no
    longer holds.
    """
    x = (p.lon_deg - ctx.origin.lon_deg) * ctx.meters_per_deg_lon
    y = (p.lat_deg - ctx.origin.lat_deg) * ctx.meters_per_deg_lat
    far = np.flatnonzero(x * x + y * y > MAX_PROJECTION_RANGE_M * MAX_PROJECTION_RANGE_M)
    if far.size:
        k = far[0]
        raise ProjectionRangeError(
            f"point {GeoPoint(float(p.lat_deg.flat[k]), float(p.lon_deg.flat[k]))} is "
            f"{math.hypot(x.flat[k], y.flat[k]):.0f} m from the projection "
            f"origin; flat-plane validity ends at {MAX_PROJECTION_RANGE_M:.0f} m"
        )
    return LocalPoint(x, y)


def unproject(p: LocalPoint, ctx: ProjectionContext) -> GeoPoint:
    """Inverse of :func:`project`."""
    return GeoPoint(
        ctx.origin.lat_deg + p.y_m / ctx.meters_per_deg_lat,
        ctx.origin.lon_deg + p.x_m / ctx.meters_per_deg_lon,
    )


def string_codes(names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Each name's index among the distinct names in string order, and
    those names."""
    # sorted(set()), not np.unique: the latter imports numpy.ma on first use
    distinct = sorted(set(names))
    rank = {s: k for k, s in enumerate(distinct)}
    return np.fromiter(map(rank.__getitem__, names), np.intp, len(names)), distinct


def recode(codes: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Codes into names renumbered over the names they use, in order, and
    those names."""
    used = np.zeros(len(names), bool)
    used[codes] = True
    return (np.cumsum(used) - 1)[codes], [names[k] for k in np.flatnonzero(used).tolist()]


def build_trajectory_set(rec: Recording, source: str = SOURCE_DETECTION) -> TrajectorySet:
    """Group a recording's rows by time into frames.

    Rows whose timestamps fall into the same FRAME_BIN_S bin share a
    frame. The result is independent of input order: frames are ordered by
    time, and points within a frame by object id: one stable sort on (bin,
    id) groups them. A frame's stamp is the fsum mean of its times. The
    frames are built in one pass over the sorted rows, which are the set's
    columns as they stand.

    Raises IntegrityError when one object id occurs twice in one frame bin;
    its ``records`` are the input positions of the two rows. Raises
    ValueError, naming the record, for a time in no bin (not finite, or
    whose bin number overflows). Either error names the first bad record
    in input order.
    """
    # rint rounds half to even, as round() does
    with np.errstate(over="ignore"):
        bins = np.rint(rec.t / FRAME_BIN_S)
    finite = np.isfinite(bins)
    # rows before the first time in no bin are grouped, so that a duplicate
    # among them is met first
    n = len(bins) if finite.all() else int(np.argmin(finite))
    order = np.lexsort((rec.ident[:n], bins[:n]))
    bins, codes = bins[order], rec.ident[order]
    # frame edges: before the first point, between bins, after the last
    edge = np.diff(bins, prepend=-np.inf, append=np.inf) != 0
    twice = np.flatnonzero(~edge[1:-1] & (codes[1:] == codes[:-1]))
    if twice.size:
        # the duplicate met first in input order, and the first record of its id
        j = twice[np.argmin(order[twice + 1])]
        first, k = int(order[j]), int(order[j + 1])
        raise IntegrityError(
            f"duplicate record for object {rec.ids[rec.ident[k]]!r} in frame bin "
            f"around t={rec.t[k]:.3f} s",
            records=(first, k),
        )
    if n < len(rec):
        raise ValueError(f"record {n}: timestamp {rec.t[n].item()!r} s falls in no frame bin")

    rows, offsets = rec.take(order), np.flatnonzero(edge)
    t, bounds = rows.t.tolist(), offsets.tolist()
    stamps = np.array([math.fsum(t[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])])
    frames = _frames(rows, offsets, stamps)
    ts = from_frames(frames, source)
    # the rows in bin order are the columns, and the stamps the frame
    # times, unless from_frames's sort by stamp moved a frame (a mean stamp
    # rounded past the next one's)
    if all(map(is_, ts.frames, frames)):
        ts._with_views(columns=rows, offsets=offsets, frame_times=stamps)
    return ts


def _frames(rows: Recording, offsets: np.ndarray, times: np.ndarray) -> tuple[DataFrame, ...]:
    """Frames at the given times, frame k holding rows offsets[k]:offsets[k + 1]."""
    points, bounds = rows.points(), offsets.tolist()
    parts = [tuple(points[a:b]) for a, b in zip(bounds, bounds[1:])]
    return tuple(map(tuple.__new__, repeat(DataFrame), zip(times.tolist(), parts)))


def from_frames(frames: Sequence[DataFrame], source: str) -> TrajectorySet:
    """Build a TrajectorySet from explicit frames, preserving empty ones."""
    return TrajectorySet(tuple(sorted(frames, key=_BY_TIME)), source)


def from_trajectories(trajs: Sequence[Trajectory], times: np.ndarray, source: str) -> TrajectorySet:
    """A TrajectorySet of trajectories in id order, each with one row per
    tick of the ascending ``times``; its frames are grouped on first read:
    frame k holds row k of every trajectory, in id order."""
    trajs = tuple(trajs)
    return _lazy_set(source, partial(_frames_of, trajs, times), frame_times=times, trajectories=trajs)


def _lazy_set(source: str, grouping, **views) -> TrajectorySet:
    """A set whose frames grouping() groups on first read, with the given
    views; grouping holds no reference to the set."""
    ts = object.__new__(TrajectorySet)
    ts.__dict__.update(source=source, _grouping=grouping)
    return ts._with_views(**views)


def _frames_of(trajs: tuple[Trajectory, ...], times: np.ndarray) -> tuple[DataFrame, ...]:
    series = (_bulk_points(t.rows, repeat(t.category), repeat(t.object_id)) for t in trajs)
    return tuple(map(tuple.__new__, repeat(DataFrame), zip(times.tolist(), zip(*series))))


def _bulk_points(
    rows: np.ndarray, categories: Iterable[str], ids: Iterable[str]
) -> tuple[DataPoint, ...]:
    """DataPoints from (t, lat, lon) rows and per-point categories and ids:
    native floats from tolist(), so they serialize as literals, in named
    tuples built by tuple.__new__, past their Python-level constructors."""
    t, lat, lon = rows.T.tolist()
    geo = map(tuple.__new__, repeat(GeoPoint), zip(lat, lon))
    return tuple(map(tuple.__new__, repeat(DataPoint), zip(t, geo, categories, ids)))


def filter_category(ts: TrajectorySet, category: str) -> TrajectorySet:
    """Keep only points of one category.

    Frames are kept even when the filter empties them: the frame grid is the
    evaluation clock, and a tick on which a system reported only the other
    category still counts as a tick. A set that holds no other category is
    returned as it is. Otherwise the result masks the set's columns and
    shares its frame times; its frames are grouped from its own columns
    only when something reads them. A category the set lacks gives empty
    frames.
    """
    if ts.categories <= {category}:
        return ts
    cols = ts.columns
    keep = cols.category == (cols.categories.index(category) if category in cols.categories else -1)
    kept, times = cols.where(keep), ts.frame_times
    offsets = np.concatenate([[0], np.cumsum(keep)])[ts.offsets]
    return _lazy_set(ts.source, partial(_frames, kept, offsets, times),
                     columns=kept, offsets=offsets, frame_times=times)


def trajectory_arrays(rows: np.ndarray, ctx: ProjectionContext) -> tuple[np.ndarray, np.ndarray]:
    """(times, xy) arrays of (n, 3) rows, of one trajectory or many laid end to end."""
    times = rows[:, 0].copy()
    xy = np.empty((len(rows), 2))
    xy[:, 0] = (rows[:, 2] - ctx.origin.lon_deg) * ctx.meters_per_deg_lon
    xy[:, 1] = (rows[:, 1] - ctx.origin.lat_deg) * ctx.meters_per_deg_lat
    return times, xy


def time_span(
    times: np.ndarray,
    t0: float | np.ndarray,
    t1: float | np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges ``[i, j)`` of the ascending ``times[lo:hi]`` inside [t0, t1].

    The bounds and row limits broadcast together and give one range per
    entry, as two int arrays: many spans of tracks laid end to end, each
    ascending within its rows, in one call. The bounds are found by
    bisection. A range is empty (``i >= j``) when no time lies within its
    bounds, and when either bound is NaN.
    """
    t0, t1, lo, hi = np.broadcast_arrays(t0, t1, lo, hi)
    i = _first_false(lo, hi, lambda k: times[k] < t0)
    j = _first_false(lo, hi, lambda k: times[k] <= t1)
    # a NaN t0 sorts after every time, and no time is <= a NaN t1
    i = np.where(t0 == t0, i, hi)
    j = np.where(t1 == t1, j, i)
    return i, j


def _first_false(lo: np.ndarray, hi: np.ndarray, before) -> np.ndarray:
    """Per entry, the first index of ``lo:hi`` where ``before`` is False, or
    hi; ``before(index)`` is True then False along each range."""
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    while (live := lo < hi).any():
        mid = (lo + hi) >> 1
        # a finished entry may sit one past the last row; any row will do
        go = live & before(np.where(live, mid, 0))
        lo = np.where(go, mid + 1, lo)
        hi = np.where(live & ~go, mid, hi)
    return lo


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore it.

    Points, frames, trajectories, sets, match tables and reports hold no
    reference cycles, so reference counting frees every one of them. A
    command or a Monte Carlo run still allocates them by the thousand, and
    the allocations keep starting collector passes that find nothing to
    free; the full passes scan the whole heap. Those passes took about an
    eighth of an ``eval`` command, and about a tenth of the Monte Carlo loop
    in a large process. The few cycles a block does leave (argparse's
    parsers hold some) are collected as usual after it ends. A collector
    that the caller had turned off stays off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
