"""CSV ingest and export for recorded points.

Wire format, shared by detection logs and RTK ground truth:

    timestamp,lat,lon,category,id

``timestamp`` is unix seconds (values that are obviously unix milliseconds
are converted), ``lat``/``lon`` are WGS-84 decimal degrees with ``.`` as the
decimal mark, ``category`` is ``vehicle`` or ``pedestrian``, ``id`` is the
reporter's object identifier. Header matching is case-insensitive and extra
columns are ignored, so lightly decorated exports from other tools load
as-is.

A malformed row never aborts a load; it is dropped and reported with its
line number so a 1% logging glitch does not cost a whole trial. A malformed
header is fatal because it means the file is not this format at all.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .core import CATEGORIES, DataPoint, GeoPoint
from .errors import SchemaError

REQUIRED_COLUMNS = ("timestamp", "lat", "lon", "category", "id")

# Unix seconds for current decades are ~2e9; unix milliseconds are ~2e12.
# Anything above this is unambiguously milliseconds.
_MS_THRESHOLD = 1e12


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one load: what was kept, what was dropped and why."""

    n_accepted: int
    rejections: tuple[tuple[int, str], ...]
    n_ms_converted: int


def _column_map(header: Sequence[str]) -> dict[str, int]:
    seen: dict[str, int] = {}
    for i, name in enumerate(header):
        key = name.strip().lower().lstrip("﻿")
        if key in REQUIRED_COLUMNS and key not in seen:
            seen[key] = i
    missing = [c for c in REQUIRED_COLUMNS if c not in seen]
    if missing:
        raise SchemaError(
            f"header is missing required column(s) {', '.join(missing)}; "
            f"got {list(header)!r}"
        )
    return seen


def _parse_row(
    row: Sequence[str], cols: dict[str, int]
) -> tuple[DataPoint, bool]:
    """Parse one data row. Raises ValueError with a human reason."""
    needed = max(cols.values())
    if len(row) <= needed:
        raise ValueError(f"expected at least {needed + 1} fields, got {len(row)}")

    raw_t = row[cols["timestamp"]].strip()
    try:
        t = float(raw_t)
    except ValueError:
        raise ValueError(f"timestamp {raw_t!r} is not a number") from None
    if not math.isfinite(t):
        raise ValueError(f"timestamp {raw_t!r} is not finite")
    was_ms = t > _MS_THRESHOLD
    if was_ms:
        t /= 1000.0
    if t <= 0:
        raise ValueError(f"timestamp {raw_t!r} is not positive")

    try:
        lat = float(row[cols["lat"]])
        lon = float(row[cols["lon"]])
    except ValueError:
        raise ValueError("lat/lon is not a number") from None
    if not (math.isfinite(lat) and -90.0 <= lat <= 90.0):
        raise ValueError(f"latitude {row[cols['lat']]!r} outside [-90, 90]")
    if not (math.isfinite(lon) and -180.0 <= lon <= 180.0):
        raise ValueError(f"longitude {row[cols['lon']]!r} outside [-180, 180]")

    category = row[cols["category"]].strip().lower()
    if category not in CATEGORIES:
        raise ValueError(
            f"category {row[cols['category']]!r} is not one of {'/'.join(CATEGORIES)}"
        )

    object_id = row[cols["id"]].strip()
    if not object_id:
        raise ValueError("empty object id")

    return DataPoint(t, GeoPoint(lat, lon), category, object_id), was_ms


def parse_csv(stream: IO[str]) -> tuple[list[DataPoint], IngestReport]:
    """Parse an open text stream of the wire format.

    Returns the accepted points in file order plus an IngestReport listing
    rejected (line_number, reason) pairs. Raises SchemaError when the header
    itself is unusable.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("file is empty, no header row") from None
    cols = _column_map(header)

    points: list[DataPoint] = []
    rejections: list[tuple[int, str]] = []
    n_ms = 0
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        try:
            point, was_ms = _parse_row(row, cols)
        except ValueError as exc:
            rejections.append((line_no, str(exc)))
            continue
        points.append(point)
        n_ms += was_ms
    return points, IngestReport(len(points), tuple(rejections), n_ms)


def read_points(path: str | Path) -> tuple[list[DataPoint], IngestReport]:
    """Load a CSV file of recorded points. See :func:`parse_csv`."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return parse_csv(fh)


def write_points(path: str | Path, points: Iterable[DataPoint]) -> None:
    """Write points in the wire format.

    Floats are written with repr so a write/read round trip reproduces the
    in-memory values bit for bit. Lines end with LF on every platform.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        for p in points:
            # float() guards against numpy scalars, whose repr is not a literal
            writer.writerow(
                [
                    repr(float(p.timestamp_s)),
                    repr(float(p.position.lat_deg)),
                    repr(float(p.position.lon_deg)),
                    p.category,
                    p.object_id,
                ]
            )
