"""CSV parsing, rejection forensics, and byte-exact round trips."""

from __future__ import annotations

import csv
import io
import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadside_eval import ingest
from roadside_eval.core import CATEGORIES, DataPoint, GeoPoint
from roadside_eval.errors import SchemaError
from roadside_eval.ingest import parse_csv, read_points, write_points

HEADER = "timestamp,lat,lon,category,id\n"


def parse(text: str):
    """The parse of text, its recording given as DataPoints."""
    rec, rep = parse_csv(io.StringIO(text))
    return rec.points(), rep


class TestHeader:
    def test_header_only(self):
        pts, rep = parse(HEADER)
        assert pts == []
        assert rep.n_accepted == 0 and rep.rejections == ()

    def test_missing_column_fatal(self):
        with pytest.raises(SchemaError) as exc:
            parse("timestamp,lat,lon,category\n")
        assert "id" in str(exc.value)

    def test_empty_file_fatal(self):
        with pytest.raises(SchemaError):
            parse("")

    def test_case_insensitive_and_extra_columns(self):
        pts, rep = parse(
            "Timestamp,LAT,Lon,Category,ID,speed,confidence\n"
            "100.5,42.3,-83.7,Vehicle,v1,12.3,0.9\n"
        )
        assert rep.n_accepted == 1
        assert pts[0] == DataPoint(100.5, GeoPoint(42.3, -83.7), "vehicle", "v1")

    def test_bom_tolerated(self):
        pts, rep = parse("﻿timestamp,lat,lon,category,id\n100,42.3,-83.7,vehicle,v1\n")
        assert rep.n_accepted == 1

    def test_crlf_line_endings(self):
        pts, rep = parse(HEADER.replace("\n", "\r\n") + "100,42.3,-83.7,vehicle,v1\r\n")
        assert rep.n_accepted == 1


class TestRowRejection:
    def test_unknown_category(self):
        pts, rep = parse(HEADER + "100,42.3,-83.7,car,v1\n")
        assert pts == []
        assert rep.rejections[0][0] == 2
        assert "category" in rep.rejections[0][1]

    def test_latitude_out_of_range(self):
        text = (
            HEADER
            + "100,42.3,-83.7,vehicle,v1\n"
            + "101,91.2,-83.7,vehicle,v1\n"
            + "102,42.3,-83.7,vehicle,v1\n"
        )
        pts, rep = parse(text)
        assert rep.n_accepted == 2
        assert len(rep.rejections) == 1
        line, reason = rep.rejections[0]
        assert line == 3
        assert "91.2" in reason

    def test_bad_timestamp_and_empty_id(self):
        text = HEADER + "abc,42.3,-83.7,vehicle,v1\n100,42.3,-83.7,vehicle,\n"
        pts, rep = parse(text)
        assert pts == []
        assert [ln for ln, _ in rep.rejections] == [2, 3]

    def test_accepted_plus_rejected_equals_rows(self):
        text = HEADER + "100,42.3,-83.7,vehicle,v1\nbad row\n101,42.3,-83.7,pedestrian,p1\n"
        pts, rep = parse(text)
        assert rep.n_accepted + len(rep.rejections) == 3

    def test_file_order_preserved(self):
        text = HEADER + "".join(
            f"{100 + k},42.3,-83.7,vehicle,v{k}\n" for k in range(5)
        )
        pts, _ = parse(text)
        assert [p.object_id for p in pts] == [f"v{k}" for k in range(5)]


class TestMillisecondDetection:
    def test_ms_timestamps_converted(self):
        pts, rep = parse(HEADER + "1700000000123,42.3,-83.7,vehicle,v1\n")
        assert rep.n_ms_converted == 1
        assert pts[0].timestamp_s == pytest.approx(1700000000.123)

    def test_seconds_left_alone(self):
        pts, rep = parse(HEADER + "1700000000.123,42.3,-83.7,vehicle,v1\n")
        assert rep.n_ms_converted == 0
        assert pts[0].timestamp_s == 1700000000.123


class TestRoundTrip:
    def test_write_read_exact(self, tmp_path):
        text = (
            HEADER
            + "1700000000.05,42.300123,-83.700456,vehicle,veh-01\n"
            + "1700000000.05,42.300125,-83.700458,pedestrian,ped-01\n"
            + "1700000000.15,42.3001234567891,-83.7,vehicle,veh-01\n"
        )
        pts, _ = parse(text)
        path = tmp_path / "out.csv"
        write_points(path, pts)
        again, rep = read_points(path)
        assert again.points() == pts
        assert rep.rejections == ()
        for column in (again.t, again.lat, again.lon, again.category, again.ident):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=4e9, allow_nan=False),
                st.floats(min_value=-89.99, max_value=89.99),
                st.floats(min_value=-179.99, max_value=179.99),
                st.sampled_from(["vehicle", "pedestrian"]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_round_trip_arbitrary_floats(self, tmp_path_factory, rows):
        pts = [
            DataPoint(t, GeoPoint(lat, lon), cat, f"obj-{k}")
            for k, (t, lat, lon, cat) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("rt") / "pts.csv"
        write_points(path, pts)
        again, rep = read_points(path)
        assert again.points() == pts
        assert rep.n_accepted == len(again) == len(pts)

    def test_written_file_is_wire_format(self, tmp_path, ctx):
        pts, _ = parse(HEADER + "100,42.3,-83.7,vehicle,v1\n")
        path = tmp_path / "one.csv"
        write_points(path, pts)
        raw = path.read_bytes()
        assert raw.startswith(b"timestamp,lat,lon,category,id\n")
        assert raw.endswith(b"\n")


# --- the per-row parser, kept as an oracle for the chunked bulk parse --------


def _oracle_row(row, cols):
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
    was_ms = t > 1e12
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
    if category not in ("vehicle", "pedestrian"):
        raise ValueError(f"category {row[cols['category']]!r} is not one of vehicle/pedestrian")
    object_id = row[cols["id"]].strip()
    if not object_id:
        raise ValueError("empty object id")
    return DataPoint(t, GeoPoint(lat, lon), category, object_id), was_ms


def _oracle_parse(stream):
    """Points, their line numbers, rejections and ms count, one row at a time."""
    reader = csv.reader(stream)
    cols = ingest._column_map(next(reader))
    points, lines, rejections, n_ms = [], [], [], 0
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        try:
            point, was_ms = _oracle_row(row, cols)
        except ValueError as exc:
            rejections.append((line_no, str(exc)))
            continue
        points.append(point)
        lines.append(line_no)
        n_ms += was_ms
    return points, lines, rejections, n_ms


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**14, 10**14).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "abc", "", " ", "1e", "1_0", " 42.5 ",
                     "0", "-0.0", "1e12", "1000000000001", "١٢٣"]),
)
_FIELD = st.one_of(
    _NUMBERS,
    st.sampled_from(["vehicle", "pedestrian", " Vehicle ", "PEDESTRIAN", "car", "",
                     "v1", " id ", "a,b", "x\ny", 'say "hi"']),
    st.text(alphabet="ab ,\"\r\n", max_size=4),
)


@st.composite
def _valid_row(draw):
    t = draw(st.one_of(
        st.floats(min_value=1e-3, max_value=4e9).map(repr),
        st.integers(1_600_000_000_000, 1_800_000_000_000).map(str),
    ))
    lat = repr(draw(st.floats(min_value=-90.0, max_value=90.0)))
    lon = repr(draw(st.floats(min_value=-180.0, max_value=180.0)))
    cat = draw(st.sampled_from(["vehicle", "pedestrian", " Vehicle", "PEDESTRIAN "]))
    oid = draw(st.sampled_from(["v1", " v2 ", "a,b", "ped-01"]))
    return [t, lat, lon, cat, oid]


# values that each field's check must reject, by field position
_BAD = (
    ["nan", "inf", "Infinity", "+inf", "-inf", "1e400", "abc", "", "0", "-5", "1e"],
    ["nan", "inf", "91", "-90.0001", "x", "", "-inf"],
    ["nan", "inf", "180.5", "-181", "x", ""],
    ["car", "", " ", "vehicles"],
    ["", "   "],
)


@st.composite
def _corrupt_row(draw):
    row = draw(_valid_row())
    k = draw(st.integers(0, 4))
    row[k] = draw(st.one_of(st.sampled_from(_BAD[k]), _FIELD))
    return row


_ROWS = st.lists(
    st.one_of(_valid_row(), _corrupt_row(), st.lists(_FIELD, max_size=7)),
    max_size=40,
)


class TestChunkedParseMatchesPerRowOracle:
    @settings(max_examples=300)
    @given(
        rows=_ROWS,
        chunk=st.integers(1, 9),
        crlf=st.booleans(),
        bom=st.booleans(),
        extra_column=st.booleans(),
    )
    def test_points_rejections_and_ms_count(self, rows, chunk, crlf, bom, extra_column):
        header = ["timestamp", "lat", "lon", "category", "id"]
        if extra_column:
            header = ["speed", *header]
            rows = [["9.9", *r] for r in rows]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n" if crlf else "\n").writerows([header, *rows])
        raw = ("\ufeff" if bom else "") + buf.getvalue()

        expected = _oracle_parse(io.StringIO(raw.removeprefix("\ufeff"), newline=""))
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
            rec, rep = parse_csv(io.StringIO(raw, newline=""))
        got = rec.points()
        assert got == expected[0]
        assert [type(p) for p in got] == [DataPoint] * len(got)
        assert rep.point_lines.tolist() == expected[1]
        assert list(rep.rejections) == expected[2]
        assert rep.n_ms_converted == expected[3]
        assert rep.n_accepted == len(rec) == len(expected[0])
        # the recording's columns hold the per-row float() values bit for bit
        want = expected[0]
        for column, values in ((rec.t, [p.timestamp_s for p in want]),
                               (rec.lat, [p.position.lat_deg for p in want]),
                               (rec.lon, [p.position.lon_deg for p in want])):
            assert list(map(float.hex, column.tolist())) == list(map(float.hex, values))
        # categories are the shared constants, ids stripped, both coded in string order
        assert [rec.categories[k] for k in rec.category] == [p.category for p in want]
        assert all(any(c is k for k in CATEGORIES) for c in rec.categories)
        assert rec.categories == sorted({p.category for p in want})
        assert [rec.ids[k] for k in rec.ident] == [p.object_id for p in want]
        assert rec.ids == sorted({p.object_id for p in want})

    @pytest.mark.parametrize("chunk", [1, 2, 1024])
    def test_every_bad_field_value(self, chunk):
        good = ["1700000000.5", "42.3", "-83.7", "vehicle", "v1"]
        rows = []
        for k, values in enumerate(_BAD):
            for value in values:
                rows += [good, [*good[:k], value, *good[k + 1:]]]
        # two bad fields at once, each with its first and last bad value: the
        # reason comes from the earlier rule, e.g. a lat out of range beside
        # an unparseable lon reads "lat/lon is not a number"
        ends = [(values[0], values[-1]) for values in _BAD]
        for i, j in itertools.combinations(range(len(_BAD)), 2):
            for a, b in itertools.product(ends[i], ends[j]):
                bad = list(good)
                bad[i], bad[j] = a, b
                rows += [good, bad]
        rows += [good, good[:3], good, [" ", "  ", "", "\t", " "]]  # narrow, blank
        text = HEADER + "".join(",".join(r) + "\n" for r in rows)
        expected = _oracle_parse(io.StringIO(text))
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
            got, rep = parse(text)
        assert len(got) == len(rows) // 2
        assert got == expected[0]
        assert rep.point_lines.tolist() == expected[1]
        assert list(rep.rejections) == expected[2]

    def test_chunk_boundaries_at_default_size(self, tmp_path):
        rows = []
        for k in range(3000):
            kind = k % 7
            if kind == 3:
                rows.append(f"{1_700_000_000_000 + k},42.3,-83.7,vehicle,v{k}")
            elif kind == 5:
                rows.append(f"{100 + k},95.0,-83.7,vehicle,v{k}")
            elif kind == 6:
                rows.append("")
            else:
                rows.append(f"{100 + k},42.3,-83.7,pedestrian,p{k}")
        path = tmp_path / "big.csv"
        path.write_bytes(("\ufeff" + HEADER + "\r\n".join(rows) + "\r\n").encode())
        with open(path, encoding="utf-8-sig", newline="") as fh:
            expected = _oracle_parse(fh)
        got, rep = read_points(path)
        assert got.points() == expected[0]
        assert rep.point_lines.tolist() == expected[1]
        assert list(rep.rejections) == expected[2]
        assert rep.n_ms_converted == expected[3] > 0


class TestFileErrors:
    def test_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(HEADER.encode() + b"\xff\xfe,1,2\n")
        with pytest.raises(SchemaError) as exc:
            read_points(path)
        assert str(path) in str(exc.value) and "UTF-8" in str(exc.value)

    def test_bad_header_names_file(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("time,lat,lon,category,id\n")
        with pytest.raises(SchemaError) as exc:
            read_points(path)
        assert str(exc.value).startswith(f"{path}: header is missing")

    def test_oversized_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(HEADER + "100,42.3,-83.7,vehicle,v1\n"
                        + "101,42.3,-83.7,vehicle," + "x" * 200_000 + "\n")
        with pytest.raises(SchemaError) as exc:
            read_points(path)
        assert str(exc.value).startswith(f"{path}: line 3: field larger than field limit")
