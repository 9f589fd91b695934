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

Rows are parsed in chunks: ``csv`` splits the fields, each row rule is one
numpy mask over the chunk, and a rejected row is worded by the first rule
it fails. Line numbers count CSV records, the header being line 1. The
accepted rows come back as one columnar :class:`~.core.Recording` in record
order, which build_trajectory_set groups as it stands.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import truth
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .core import CATEGORIES, DataPoint, Recording, recode, string_codes
from .errors import SchemaError

REQUIRED_COLUMNS = ("timestamp", "lat", "lon", "category", "id")

# Unix seconds for current decades are ~2e9; unix milliseconds are ~2e12.
# Anything above this is unambiguously milliseconds.
_MS_THRESHOLD = 1e12

# Rows per parse chunk: large enough to amortise the numpy calls, small
# enough that a chunk's field lists stay a small part of peak memory.
_CHUNK_ROWS = 1024

# The shared category constants in string order, and each one's code there.
_CATEGORY_NAMES = sorted(CATEGORIES)
_CATEGORY_CODES = {c: k for k, c in enumerate(_CATEGORY_NAMES)}


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one load: what was kept, what was dropped and why."""

    n_accepted: int
    rejections: tuple[tuple[int, str], ...]
    n_ms_converted: int
    # line number of each accepted row, in record order
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


# The row rules' reasons, in the order they are tried: _parse_chunk's masks
# follow it. Fields are quoted as read, the timestamp ({t}) stripped.
_REASONS = (
    "expected at least {needed} fields, got {got}",
    "timestamp {t!r} is not a number",
    "timestamp {t!r} is not finite",
    "timestamp {t!r} is not positive",
    "lat/lon is not a number",
    "latitude {lat!r} outside [-90, 90]",
    "longitude {lon!r} outside [-180, 180]",
    f"category {{category!r}} is not one of {'/'.join(CATEGORIES)}",
    "empty object id",
)


def _reason(rule: int, row: Sequence[str], cols: dict[str, int]) -> str:
    """Word a rejected row by the index in _REASONS of the first rule it fails."""
    if rule == 0:  # too few fields to quote any
        return _REASONS[0].format(needed=max(cols.values()) + 1, got=len(row))
    fields = {name: row[i] for name, i in cols.items()}
    return _REASONS[rule].format(t=fields["timestamp"].strip(), **fields)


def _floats(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """float() of each text (NaN where float() fails) and where it parsed."""
    try:
        return np.fromiter(map(float, texts), float, len(texts)), np.ones(len(texts), bool)
    except ValueError:
        values = list(map(_float_or_none, texts))
        return np.array(values, float), np.array([v is not None for v in values], bool)


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _categories(texts: Sequence[str]) -> np.ndarray:
    """Each text's category code into _CATEGORY_NAMES, -1 where it names none."""
    codes = list(map(_CATEGORY_CODES.get, texts))
    if None in codes:
        codes = [_CATEGORY_CODES.get(v.strip().lower(), -1) if c is None else c
                 for c, v in zip(codes, texts)]
    return np.array(codes, np.intp)


def _parse_chunk(
    rows: list[list[str]],
    first_line: int,
    cols: dict[str, int],
    rejections: list[tuple[int, str]],
) -> tuple[tuple, int]:
    """Parse consecutive rows, appending their rejections.

    Applies each row rule to the whole chunk as a mask; a row that fails
    one is skipped when blank and otherwise worded by the first it fails.
    Returns the accepted rows' fields (t, lat, lon, category codes, ids)
    and line numbers, and how many of their timestamps were milliseconds.
    """
    n = len(rows)
    width = max(cols.values()) + 1
    wide = np.fromiter(map(len, rows), int, n) >= width
    full = rows if wide.all() else list(compress(rows, wide.tolist()))
    fields = list(zip(*full)) or [()] * width
    raw_t, raw_lat, raw_lon, raw_cat, raw_id = (fields[cols[name]] for name in REQUIRED_COLUMNS)
    t, t_parsed = _floats(raw_t)
    was_ms = t > _MS_THRESHOLD
    t = np.where(was_ms, t / 1000.0, t)
    lat, lat_parsed = _floats(raw_lat)
    lon, lon_parsed = _floats(raw_lon)
    cats = _categories(raw_cat)
    ids = list(map(str.strip, raw_id))
    # _REASONS[1:] in order; the range tests are False for NaN and infinities
    failed = ~np.array([
        t_parsed,
        np.isfinite(t),
        t > 0,
        lat_parsed & lon_parsed,
        (-90.0 <= lat) & (lat <= 90.0),
        (-180.0 <= lon) & (lon <= 180.0),
        cats >= 0,
        np.fromiter(map(truth, ids), bool, len(full)),
    ])
    ok = ~failed.any(axis=0)

    # each row's first failed rule as an index into _REASONS, -1 if none
    rule = np.zeros(n, int)
    rule[wide] = np.where(ok, -1, failed.argmax(axis=0) + 1)
    for k in np.flatnonzero(rule >= 0).tolist():
        row = rows[k]
        if any(map(str.strip, row)):  # blank rows are dropped silently
            rejections.append((first_line + k, _reason(rule[k], row, cols)))
    lines = first_line + np.flatnonzero(wide)[ok]
    accepted = t[ok], lat[ok], lon[ok], cats[ok], list(compress(ids, ok.tolist())), lines
    return accepted, int(np.count_nonzero(was_ms & ok))


def parse_csv(stream: IO[str]) -> tuple[Recording, IngestReport]:
    """Parse an open text stream of the wire format.

    Returns the accepted rows as a Recording in record order, plus an
    IngestReport listing rejected (line_number, reason) pairs. Raises
    SchemaError when the header itself is unusable, or when ``csv`` cannot
    split a line into fields.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("file is empty, no header row") from None
    cols = _column_map(header)

    rejections: list[tuple[int, str]] = []
    pieces = [(np.empty(0), np.empty(0), np.empty(0), np.empty(0, np.intp), [], np.empty(0, int))]
    n_ms = 0
    line_no = 2
    try:
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            accepted, chunk_ms = _parse_chunk(chunk, line_no, cols, rejections)
            pieces.append(accepted)
            n_ms += chunk_ms
            line_no += len(chunk)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise SchemaError(f"line {reader.line_num}: {exc}") from None
    t, lat, lon, cats, ids, lines = zip(*pieces)
    rec = Recording(np.concatenate(t), np.concatenate(lat), np.concatenate(lon),
                    *recode(np.concatenate(cats), _CATEGORY_NAMES),
                    *string_codes(list(chain.from_iterable(ids))))
    return rec, IngestReport(len(rec), tuple(rejections), n_ms, np.concatenate(lines))


def read_points(path: str | Path) -> tuple[Recording, IngestReport]:
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
