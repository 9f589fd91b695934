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

Rows are parsed in chunks: ``csv`` splits the fields, numpy checks a whole
chunk's numbers at once, and only rejected rows are worded one by one, by
the same per-row rules. Line numbers count CSV records, the header being
line 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import itemgetter, truth
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .core import CATEGORIES, DataPoint, GeoPoint
from .errors import ConsistencyError, SchemaError

REQUIRED_COLUMNS = ("timestamp", "lat", "lon", "category", "id")

# Unix seconds for current decades are ~2e9; unix milliseconds are ~2e12.
# Anything above this is unambiguously milliseconds.
_MS_THRESHOLD = 1e12

# Rows per parse chunk: large enough to amortise the numpy calls, small
# enough that a chunk's field lists stay a small part of peak memory.
_CHUNK_ROWS = 1024

# A category already in canonical form maps to the shared constant.
_CANONICAL = {c: c for c in CATEGORIES}


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one load: what was kept, what was dropped and why."""

    n_accepted: int
    rejections: tuple[tuple[int, str], ...]
    n_ms_converted: int
    # line number of each accepted point, in point order
    point_lines: np.ndarray = field(compare=False, repr=False)


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
    """Parse one data row. Raises ValueError with a human reason.

    These are the row rules; _parse_chunk applies the same checks to a
    whole chunk as masks and calls this only to word a rejected row.
    """
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


def _floats(texts: list[str]) -> np.ndarray:
    """float() of each text; NaN where float() fails (such rows are rejected)."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.array([_float_or_nan(v) for v in texts], dtype=float)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _categories(texts: list[str]) -> list[str | None]:
    """Canonical category of each text, or None where it names none."""
    cats = list(map(_CANONICAL.get, texts))
    if None in cats:
        cats = [c or _CANONICAL.get(v.strip().lower()) for c, v in zip(cats, texts)]
    return cats


def _parse_chunk(
    rows: list[list[str]],
    first_line: int,
    cols: dict[str, int],
    points: list[DataPoint],
    rejections: list[tuple[int, str]],
) -> tuple[np.ndarray, int]:
    """Parse consecutive rows, appending their points and rejections.

    Applies _parse_row's checks to the whole chunk as masks, in its order;
    rows that fail one are skipped when blank and otherwise worded by
    _parse_row itself. Returns the accepted rows' line numbers and how many
    of their timestamps were milliseconds.
    """
    n = len(rows)
    wide = np.fromiter(map(len, rows), int, n) > max(cols.values())
    full = rows if wide.all() else list(compress(rows, wide.tolist()))
    raw_t, raw_lat, raw_lon, raw_cat, raw_id = (
        list(map(itemgetter(cols[name]), full)) for name in REQUIRED_COLUMNS
    )
    t = _floats(raw_t)
    finite = np.isfinite(t)
    was_ms = t > _MS_THRESHOLD
    t = np.where(was_ms, t / 1000.0, t)
    lat = _floats(raw_lat)
    lon = _floats(raw_lon)
    cats = _categories(raw_cat)
    ids = list(map(str.strip, raw_id))
    # the range tests are False for NaN and infinities
    ok = (
        finite
        & (t > 0)
        & (-90.0 <= lat) & (lat <= 90.0)
        & (-180.0 <= lon) & (lon <= 180.0)
        & np.fromiter(map(truth, cats), bool, len(full))
        & np.fromiter(map(truth, ids), bool, len(full))
    )
    keep = ok.tolist()
    geo = map(tuple.__new__, repeat(GeoPoint), zip(lat[ok].tolist(), lon[ok].tolist()))
    fields = zip(t[ok].tolist(), geo, compress(cats, keep), compress(ids, keep))
    points.extend(map(tuple.__new__, repeat(DataPoint), fields))

    accepted = np.flatnonzero(wide)[ok]
    dropped = np.ones(n, bool)
    dropped[accepted] = False
    for k in np.flatnonzero(dropped).tolist():
        row = rows[k]
        if not row or all(not f.strip() for f in row):
            continue
        try:
            _parse_row(row, cols)
        except ValueError as exc:
            rejections.append((first_line + k, str(exc)))
        else:
            raise ConsistencyError(f"line {first_line + k}: bulk parse rejected a valid row")
    return first_line + accepted, int(np.count_nonzero(was_ms & ok))


def parse_csv(stream: IO[str]) -> tuple[list[DataPoint], IngestReport]:
    """Parse an open text stream of the wire format.

    Returns the accepted points in file order plus an IngestReport listing
    rejected (line_number, reason) pairs. Raises SchemaError when the header
    itself is unusable, or when ``csv`` cannot split a line into fields.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("file is empty, no header row") from None
    cols = _column_map(header)

    points: list[DataPoint] = []
    rejections: list[tuple[int, str]] = []
    lines = [np.empty(0, int)]
    n_ms = 0
    line_no = 2
    try:
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            chunk_lines, chunk_ms = _parse_chunk(chunk, line_no, cols, points, rejections)
            lines.append(chunk_lines)
            n_ms += chunk_ms
            line_no += len(chunk)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise SchemaError(f"line {reader.line_num}: {exc}") from None
    report = IngestReport(len(points), tuple(rejections), n_ms, np.concatenate(lines))
    return points, report


def read_points(path: str | Path) -> tuple[list[DataPoint], IngestReport]:
    """Load a CSV file of recorded points. See :func:`parse_csv`.

    A SchemaError names the file; so does the one raised for bytes that
    are not UTF-8 text.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse_csv(fh)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from None
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


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
