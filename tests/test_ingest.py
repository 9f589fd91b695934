"""CSV parsing, rejection forensics, and byte-exact round trips."""

from __future__ import annotations

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadside_eval.core import DataPoint, GeoPoint
from roadside_eval.errors import SchemaError
from roadside_eval.ingest import parse_csv, read_points, write_points

HEADER = "timestamp,lat,lon,category,id\n"


def parse(text: str):
    return parse_csv(io.StringIO(text))


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
        assert again == pts
        assert rep.rejections == ()

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
        assert again == pts
        assert rep.n_accepted == len(pts)

    def test_written_file_is_wire_format(self, tmp_path, ctx):
        pts, _ = parse(HEADER + "100,42.3,-83.7,vehicle,v1\n")
        path = tmp_path / "one.csv"
        write_points(path, pts)
        raw = path.read_bytes()
        assert raw.startswith(b"timestamp,lat,lon,category,id\n")
        assert raw.endswith(b"\n")
