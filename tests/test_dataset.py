import json
import math

import numpy as np
import pytest

from trajkit import (BundleSpec, IngestError, Trajectory, TrajectoryDataset,
                     ingest, load_dataset, save_dataset, sspd, synth)
from trajkit.dataset import write_json


PLANAR_CSV = """traj_id,x,y,t
a,0.0,0.0,0
a,1.0,0.0,1
a,2.0,0.5,2
b,5.0,5.0,10
b,6.0,5.0,11
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestCsvIngest:
    def test_planar_happy_path(self, tmp_path):
        ds = ingest(write(tmp_path, "d.csv", PLANAR_CSV))
        assert ds.ids == ("a", "b")
        assert len(ds.trajectories[0]) == 3
        assert ds.crs == {"kind": "planar"}
        assert ds.provenance["rows_read"] == 5

    def test_rows_are_sorted_by_timestamp(self, tmp_path):
        text = "traj_id,x,y,t\na,2.0,0.0,3\na,0.0,0.0,1\na,1.0,0.0,2\n"
        ds = ingest(write(tmp_path, "d.csv", text))
        assert ds.trajectories[0].points[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_iso_timestamps_are_accepted(self, tmp_path):
        text = ("traj_id,x,y,time\n"
                "a,0.0,0.0,2024-05-01T10:00:00\n"
                "a,1.0,0.0,2024-05-01T10:00:30\n")
        ds = ingest(write(tmp_path, "d.csv", text))
        ts = ds.trajectories[0].timestamps
        assert ts is not None and ts[1] - ts[0] == 30.0

    def test_timestamps_are_optional(self, tmp_path):
        text = "traj_id,x,y\na,0.0,0.0\na,1.0,0.0\n"
        ds = ingest(write(tmp_path, "d.csv", text))
        assert ds.trajectories[0].timestamps is None

    @pytest.mark.parametrize("value", ["oops", "nan", "inf", "-inf", ""])
    def test_malformed_coordinate_names_the_line(self, tmp_path, value):
        text = f"traj_id,x,y\na,0.0,0.0\na,{value},0.0\n"
        with pytest.raises(IngestError, match="line 3: bad coordinate: expected two finite numbers"):
            ingest(write(tmp_path, "d.csv", text))

    def test_blank_lines_are_skipped(self, tmp_path):
        text = "traj_id,x,y\na,0.0,0.0\n\na,1.0,0.0\n  \nb,5.0,5.0\nb,6.0,5.0\n"
        ds = ingest(write(tmp_path, "d.csv", text))
        assert ds.ids == ("a", "b") and ds.provenance["rows_read"] == 4

    @pytest.mark.parametrize("read", [ingest, load_dataset])
    def test_a_line_after_a_multi_line_id_is_named_by_its_file_line(self, tmp_path, read):
        # The two "two\nlines" records take file lines 2-5.
        text = 'traj_id,x,y\n"two\nlines",0,0\n"two\nlines",1,1\nb,0,0\nb,oops,1\n'
        with pytest.raises(IngestError, match="line 7: bad coordinate"):
            read(write(tmp_path, "d.csv", text))

    def test_short_row_names_the_line(self, tmp_path):
        text = "traj_id,x,y\na,0.0,0.0\na,1.0\n"
        with pytest.raises(IngestError, match="line 3.*expected 3 fields"):
            ingest(write(tmp_path, "d.csv", text))

    def test_duplicate_timestamps_rejected(self, tmp_path):
        text = "traj_id,x,y,t\na,0.0,0.0,5\na,1.0,0.0,5\n"
        with pytest.raises(IngestError, match="strictly increasing"):
            ingest(write(tmp_path, "d.csv", text))

    def test_mixed_timestamp_presence_rejected(self, tmp_path):
        text = "traj_id,x,y,t\na,0.0,0.0,1\na,1.0,0.0,\n"
        with pytest.raises(IngestError, match="some rows have timestamps"):
            ingest(write(tmp_path, "d.csv", text))

    def test_missing_id_column_rejected(self, tmp_path):
        text = "x,y\n0.0,0.0\n"
        with pytest.raises(IngestError, match="id column"):
            ingest(write(tmp_path, "d.csv", text))

    def test_latlon_projection_is_centered_and_metric(self, tmp_path):
        text = ("traj_id,lat,lon\n"
                "a,0.00,0.0\na,0.01,0.0\n")
        ds = ingest(write(tmp_path, "d.csv", text))
        assert ds.crs["kind"] == "projected-wgs84"
        assert ds.crs["origin_lat"] == pytest.approx(0.005)
        assert ds.provenance["wgs84"] is True
        pts = ds.trajectories[0].points
        # 0.01 degrees of latitude is about 1112 m
        assert abs(pts[1, 1] - pts[0, 1]) == pytest.approx(1111.95, abs=0.1)

    def test_planar_csv_is_not_projected(self, tmp_path):
        ds = ingest(write(tmp_path, "d.csv", PLANAR_CSV))
        assert ds.provenance["wgs84"] is False
        assert ds.trajectories[0].points.tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]]

    def test_lon_before_lat_gives_the_same_dataset(self, tmp_path):
        rows = [("a", 48.85, 2.35, 0), ("a", 48.86, 2.37, 1), ("b", 48.80, 2.40, 0),
                ("b", 48.82, 2.41, 1)]
        lat_first = "traj_id,lat,lon,t\n" + "".join(f"{i},{la},{lo},{t}\n" for i, la, lo, t in rows)
        lon_first = "lon,t,traj_id,lat\n" + "".join(f"{lo},{t},{i},{la}\n" for i, la, lo, t in rows)
        ds = ingest(write(tmp_path, "lat.csv", lat_first))
        ref = ingest(write(tmp_path, "lon.csv", lon_first))
        assert ds.ids == ref.ids and ds.crs == ref.crs
        assert ds.crs["origin_lat"] == pytest.approx(48.8325)
        assert ds.crs["origin_lon"] == pytest.approx(2.3825)
        for a, b in zip(ds.trajectories, ref.trajectories):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.timestamps, b.timestamps)

    def test_a_bad_geographic_coordinate_is_quoted_lon_first(self, tmp_path):
        text = "traj_id,lat,lon\na,48.85,2.35\na,oops,2.36\n"
        with pytest.raises(IngestError, match="line 3: bad coordinate: .* got '2.36', 'oops'"):
            ingest(write(tmp_path, "d.csv", text))

    def test_min_points_drops_and_counts(self, tmp_path):
        text = "traj_id,x,y\na,0,0\na,1,0\na,2,0\nb,9,9\nb,8,8\n"
        ds = ingest(write(tmp_path, "d.csv", text), min_points=np.int64(3))
        assert ds.ids == ("a",)
        assert ds.provenance["dropped"]["too_short"] == 1
        assert type(ds.provenance["min_points"]) is int

    @pytest.mark.parametrize("min_points", [2.9, 3.0, "3", True, None])
    def test_min_points_must_be_an_int(self, tmp_path, min_points):
        with pytest.raises(ValueError, match="ingest: min_points must be an int, got "):
            ingest(write(tmp_path, "d.csv", PLANAR_CSV), min_points=min_points)

    def test_a_stale_wgs84_argument_fails(self, tmp_path):
        path = write(tmp_path, "d.csv", PLANAR_CSV)
        with pytest.raises(TypeError, match="wgs84"):
            ingest(path, wgs84=True)
        with pytest.raises(ValueError, match="min_points must be an int, got 'csv'"):
            ingest(path, "csv", True)

    def test_start_and_end_boxes_filter(self, tmp_path):
        ds = ingest(write(tmp_path, "d.csv", PLANAR_CSV),
                    start_box=(-1.0, -1.0, 1.0, 1.0))
        assert ds.ids == ("a",)
        assert ds.provenance["dropped"]["start_box"] == 1
        ds = ingest(write(tmp_path, "d.csv", PLANAR_CSV),
                    end_box=(5.5, 4.5, 6.5, 5.5))
        assert ds.ids == ("b",)

    @pytest.mark.parametrize("boxes", [
        {"start_box": (-math.inf, -math.inf, math.inf, math.inf)},
        {"end_box": (0.0, 0.0, math.nan, 1.0)}, {"start_box": (0.0, 0.0, 1.0)},
        {"end_box": (0.0, 0.0, "1", 1.0)}])
    def test_boxes_must_be_four_finite_numbers(self, tmp_path, boxes):
        (name, box), = boxes.items()
        with pytest.raises(ValueError, match=f"ingest: {name} must be four finite numbers"):
            ingest(write(tmp_path, "d.csv", PLANAR_CSV), **boxes)

    def test_empty_result_reports_drop_counts(self, tmp_path):
        with pytest.raises(IngestError, match="no trajectories left.*too_short"):
            ingest(write(tmp_path, "d.csv", PLANAR_CSV), min_points=10)

    @pytest.mark.parametrize("text, match", [
        ("", "empty file"),
        ("traj_id,east,north\na,0,0\n", "header must name x,y or lat,lon coordinate columns"),
        ("traj_id,x,y,t\na,0,0,0\na,1,0,noon\n", "line 3: cannot parse time 'noon'"),
        ("traj_id,x,y,t\na,0,0,0\na,1,0,1e400\n", "line 3: cannot parse time '1e400'")],
        ids=["empty", "no-coordinates", "bad-time", "infinite-time"])
    def test_unreadable_file_is_rejected(self, tmp_path, text, match):
        with pytest.raises(IngestError, match=match):
            ingest(write(tmp_path, "d.csv", text))

    # Each (lon, lat) walk starts at lon 1, 2, 3 or 4 and ends at lat 51.1, 51.2, 51.3 or 51.4.
    GEO = [("a", [(1.0, 50.0), (1.5, 51.1)]), ("b", [(2.0, 50.0), (2.5, 51.2)]),
           ("c", [(3.0, 50.0), (3.5, 51.3)]), ("d", [(4.0, 50.0), (4.5, 51.4)])]

    @pytest.mark.parametrize("fmt", ["csv", "geojson"])
    @pytest.mark.parametrize("boxes, kept, dropped", [
        ({"start_box": (1.5, 49.5, 3.5, 50.5)}, ("b", "c"), {"start_box": 2, "end_box": 0}),
        ({"end_box": (2.0, 51.15, 5.0, 51.35)}, ("b", "c"), {"start_box": 0, "end_box": 2}),
        ({"start_box": (0.0, 49.0, 3.5, 51.0), "end_box": (3.0, 51.0, 5.0, 52.0)}, ("c",),
         {"start_box": 1, "end_box": 2})], ids=["start", "end", "both"])
    def test_geographic_boxes_are_lon_lat(self, tmp_path, fmt, boxes, kept, dropped):
        if fmt == "csv":
            text = "traj_id,lat,lon\n" + "".join(f"{tid},{lat},{lon}\n"
                                                 for tid, pts in self.GEO for lon, lat in pts)
            path = write(tmp_path, "d.csv", text)
        else:
            doc = {"type": "FeatureCollection", "features": [
                {"type": "Feature", "id": tid,
                 "geometry": {"type": "LineString", "coordinates": [list(p) for p in pts]}}
                for tid, pts in self.GEO]}
            path = write(tmp_path, "d.geojson", json.dumps(doc))
        ds = ingest(path, **boxes)
        assert ds.ids == kept
        assert ds.crs["kind"] == "projected-wgs84"
        assert ds.provenance["dropped"] == {"too_short": 0, **dropped}

    def test_the_content_decides_the_format_not_the_name(self, tmp_path):
        doc = json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "id": "r1",
             "geometry": {"type": "LineString", "coordinates": [[2.35, 48.85], [2.36, 48.86]]}}]})
        for name in ("d.csv", "d.json"):
            ds = ingest(write(tmp_path, name, "\n  " + doc))
            assert ds.ids == ("r1",) and ds.provenance["format"] == "geojson"
        ds = ingest(write(tmp_path, "d.geojson", PLANAR_CSV))
        assert ds.ids == ("a", "b") and ds.provenance["format"] == "csv"
        assert ds.crs == {"kind": "planar"}

    @pytest.mark.parametrize("text", [
        PLANAR_CSV, "traj_id,lat,lon\na,0.00,0.0\na,0.01,0.0\nb,0.02,0.0\nb,0.02,0.01\n",
        json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "id": "r1",
             "geometry": {"type": "LineString", "coordinates": [[2.35, 48.85], [2.36, 48.86]]}}]})],
        ids=["planar", "latlon", "geojson"])
    def test_a_byte_order_mark_is_read_past(self, tmp_path, text):
        # Spreadsheet tools open a "CSV UTF-8" export with one.
        ref = ingest(write(tmp_path, "plain", text))
        ds = ingest(write(tmp_path, "marked", "\ufeff" + text))
        assert ds.ids == ref.ids and ds.crs == ref.crs
        assert {**ds.provenance, "source": None} == {**ref.provenance, "source": None}
        for a, b in zip(ds.trajectories, ref.trajectories):
            assert np.array_equal(a.points, b.points)
            assert (a.timestamps is None) == (b.timestamps is None)
            assert a.timestamps is None or np.array_equal(a.timestamps, b.timestamps)


class TestGeojsonIngest:
    def make_doc(self):
        return {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature", "id": "r1",
                 "geometry": {"type": "LineString",
                              "coordinates": [[2.35, 48.85], [2.36, 48.86]]},
                 "properties": {"timestamps": [0, 30]}},
                {"type": "Feature",
                 "geometry": {"type": "LineString",
                              "coordinates": [[2.40, 48.80], [2.41, 48.81]]},
                 "properties": {"traj_id": "r2"}},
            ],
        }

    def test_linestrings_are_projected(self, tmp_path):
        p = write(tmp_path, "d.geojson", json.dumps(self.make_doc()))
        ds = ingest(p)
        assert ds.ids == ("r1", "r2")
        assert ds.crs["kind"] == "projected-wgs84"
        assert ds.trajectories[0].timestamps is not None

    def test_non_linestring_rejected(self, tmp_path):
        doc = self.make_doc()
        doc["features"][0]["geometry"] = {"type": "Point", "coordinates": [0, 0]}
        p = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.raises(IngestError, match="feature 0.*LineString"):
            ingest(p)

    def test_missing_id_rejected(self, tmp_path):
        doc = self.make_doc()
        del doc["features"][1]["properties"]["traj_id"]
        p = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.raises(IngestError, match="feature 1.*no id"):
            ingest(p)

    @pytest.mark.parametrize("feature, key, value, match", [
        (None, "type", "Feature", "expected a GeoJSON FeatureCollection"),
        (0, "properties", {"timestamps": [0]}, "feature 0: timestamps and coordinates differ"),
        (1, "geometry", {"type": "LineString", "coordinates": [[2.4, 48.8], [2.41]]},
         "feature 1: coordinate 1 is not a lon,lat pair"),
        (None, "features", 3, "features must be a list"),
        (None, "features", [[1, 2]], "feature 0: must be an object"),
        (1, "properties", ["r2"], "feature 1: properties must be an object"),
        (1, "geometry", ["LineString"], "feature 1: geometry must be an object"),
        (1, "geometry", {"type": "LineString", "coordinates": 5},
         "feature 1: coordinates must be a list"),
        (1, "geometry", {"type": "LineString", "coordinates": [[2.4, 48.8], 2.41]},
         "feature 1: coordinate 1 is not a lon,lat pair"),
        (0, "properties", {"timestamps": 30}, "feature 0: timestamps must be a list"),
        (0, "id", " ", "feature 0, coordinate 0: empty trajectory id"),
        (1, "geometry", {"type": "LineString", "coordinates": [[2.4, 48.8], [2.41, math.nan]]},
         "feature 1, coordinate 1: bad coordinate: expected two finite numbers"),
        (1, "geometry", {"type": "LineString", "coordinates": [[2.4, 48.8], [None, 48.81]]},
         "feature 1, coordinate 1: bad coordinate: expected two finite numbers"),
        (0, "properties", {"timestamps": [0, "noon"]},
         "feature 0, coordinate 1: cannot parse time 'noon'"),
        (0, "properties", {"timestamps": [0, True]},
         "feature 0, coordinate 1: time must be a finite number, got True")],
        ids=["not-a-collection", "timestamps", "short-pair", "features-number", "feature-list",
             "properties-list", "geometry-list", "coordinates-number", "bare-number",
             "timestamps-number", "blank-id", "nan-coordinate", "null-coordinate", "bad-time",
             "bool-time"])
    def test_malformed_document_is_rejected(self, tmp_path, feature, key, value, match):
        doc = self.make_doc()
        (doc if feature is None else doc["features"][feature])[key] = value
        p = write(tmp_path, "d.geojson", json.dumps(doc))
        with pytest.raises(IngestError, match=match):
            ingest(p)

    def test_top_level_list_rejected(self, tmp_path):
        p = write(tmp_path, "d.geojson", json.dumps([self.make_doc()]))
        with pytest.raises(IngestError, match="d.geojson: expected a JSON object at the top level"):
            ingest(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = write(tmp_path, "d.geojson", "{nope")
        with pytest.raises(IngestError, match="invalid JSON"):
            ingest(p)

    def test_times_may_be_numbers_or_iso_strings(self, tmp_path):
        doc = self.make_doc()
        doc["features"][0]["properties"]["timestamps"] = ["2024-05-01T10:00:00", 1714557630.5]
        ds = ingest(write(tmp_path, "d.geojson", json.dumps(doc)))
        assert ds.trajectories[0].timestamps.tolist() == [1714557600.0, 1714557630.5]


class TestSynth:
    ANCHOR = np.array([(0.0, 0.0), (10.0, 0.0)])

    def test_same_seed_reproduces_exactly(self):
        spec = BundleSpec(anchor=self.ANCHOR, count=4, jitter=0.3)
        ds1, lab1 = synth([spec], seed=42)
        ds2, lab2 = synth([spec], seed=42)
        assert ds1.ids == ds2.ids
        assert np.array_equal(lab1, lab2)
        for a, b in zip(ds1.trajectories, ds2.trajectories):
            assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        spec = BundleSpec(anchor=self.ANCHOR, count=4, jitter=0.3)
        ds1, _ = synth([spec], seed=1)
        ds2, _ = synth([spec], seed=2)
        assert not np.array_equal(ds1.trajectories[0].points, ds2.trajectories[0].points)

    def test_point_counts_respect_the_range(self):
        spec = BundleSpec(anchor=self.ANCHOR, count=30, points=(5, 7))
        ds, _ = synth([spec], seed=3)
        counts = {len(t) for t in ds.trajectories}
        assert counts <= {5, 6, 7}
        assert len(counts) > 1

    def test_zero_jitter_follows_the_anchor(self):
        spec = BundleSpec(anchor=self.ANCHOR, count=5, jitter=0.0)
        ds, _ = synth([spec], seed=4)
        for t in ds.trajectories:
            assert np.all(t.points[:, 1] == 0.0)
            assert t.points[0, 0] == 0.0 and t.points[-1, 0] == 10.0
        # resamplings of one carrier are mutually at distance zero
        assert sspd(ds.trajectories[0], ds.trajectories[1]) == 0.0

    def test_labels_map_bundles(self):
        a = BundleSpec(anchor=self.ANCHOR, count=2)
        b = BundleSpec(anchor=self.ANCHOR + 100.0, count=3)
        ds, labels = synth([a, b], seed=5)
        assert labels.tolist() == [0, 0, 1, 1, 1]
        assert ds.ids == ("b0t0", "b0t1", "b1t0", "b1t1", "b1t2")

    def test_a_bare_bundle_is_a_list_of_one(self):
        spec = BundleSpec(anchor=self.ANCHOR, count=3, jitter=0.2)
        (ds, labels), (ref, ref_labels) = synth(spec, seed=4), synth([spec], seed=4)
        assert ds.ids == ref.ids and labels.tolist() == ref_labels.tolist() == [0, 0, 0]
        for a, b in zip(ds.trajectories, ref.trajectories):
            assert np.array_equal(a.points, b.points)

    def test_anchor_validation(self):
        with pytest.raises(ValueError, match="positive length"):
            BundleSpec(anchor=np.zeros((2, 2)), count=1)
        with pytest.raises(ValueError, match="count"):
            BundleSpec(anchor=self.ANCHOR, count=0)
        with pytest.raises(ValueError, match="jitter"):
            BundleSpec(anchor=self.ANCHOR, count=1, jitter=-0.1)
        with pytest.raises(ValueError, match="points range"):
            BundleSpec(anchor=self.ANCHOR, count=1, points=(1, 5))

    @pytest.mark.parametrize("jitter", [math.nan, math.inf, "0.1"])
    def test_jitter_must_be_finite_and_not_negative(self, jitter):
        with pytest.raises(ValueError, match="bundle jitter must be a finite number >= 0"):
            BundleSpec(anchor=self.ANCHOR, count=2, jitter=jitter)

    @pytest.mark.parametrize("count", [2.7, 2.0, "3", True, None])
    def test_count_must_be_an_int(self, count):
        with pytest.raises(ValueError, match="bundle count must be an int >= 1, got "):
            BundleSpec(anchor=self.ANCHOR, count=count)

    @pytest.mark.parametrize("points", [(2.5, 3), (3, "4"), (3, True), (3,), (3, 4, 5), 3, "34"],
                             ids=["float", "string", "bool", "one", "three", "number", "text"])
    def test_points_must_be_two_ints(self, points):
        with pytest.raises(ValueError, match="bundle points range must be two ints with 2 <= lo <= hi"):
            BundleSpec(anchor=self.ANCHOR, count=2, points=points)

    def test_values_are_stored_as_python_numbers(self):
        spec = BundleSpec(anchor=self.ANCHOR, count=np.int64(3), jitter=0, points=[np.int32(4), 5])
        assert (spec.count, spec.jitter, spec.points) == (3, 0.0, (4, 5))
        assert [type(v) for v in (spec.count, spec.jitter, *spec.points)] == [int, float, int, int]
        ds, _ = synth(spec, seed=0)
        assert ds.provenance["bundles"][0] == {"count": 3, "jitter": 0.0, "points": [4, 5],
                                               "anchor_points": 2}
        assert json.dumps(ds.provenance["bundles"][0]["jitter"]) == "0.0"

    @pytest.mark.parametrize("anchor", [[["0", "0"], ["1", "1"]], [[0, 0], [1, True]],
                                        [[0, 0], [1, None]]], ids=["string", "bool", "none"])
    def test_anchor_values_must_be_numbers(self, anchor):
        with pytest.raises(ValueError, match="bundle anchor must be finite numbers"):
            BundleSpec(anchor=anchor, count=2)

    def test_non_finite_anchor_and_no_bundles_are_rejected(self):
        with pytest.raises(ValueError, match="bundle anchor must be finite"):
            BundleSpec(anchor=np.array([(0.0, 0.0), (np.inf, 0.0)]), count=1)
        with pytest.raises(ValueError, match="synth: need at least one bundle"):
            synth([], seed=0)


class TestSaveLoad:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_no_json_file_holds_nan_or_infinity(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(tmp_path / "doc.json", {"crs": {"kind": "planar"}, "jitter": [0.5, value]})
        assert not (tmp_path / "doc.json").exists()

    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = BundleSpec(anchor=np.array([(0.0, 0.0), (3.0, 7.0)]), count=3, jitter=0.5)
        ds, _ = synth([spec], seed=11)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.ids == ds.ids
        for a, b in zip(ds.trajectories, back.trajectories):
            assert np.array_equal(a.points, b.points)
        assert back.provenance["seed"] == 11

    def test_round_trip_keeps_timestamps(self, tmp_path):
        ds = ingest(write(tmp_path, "in.csv", PLANAR_CSV))
        out = tmp_path / "out.csv"
        save_dataset(ds, out)
        back = load_dataset(out)
        assert np.array_equal(back.trajectories[0].timestamps,
                              ds.trajectories[0].timestamps)

    def test_ids_that_need_quoting_round_trip(self, tmp_path):
        ids = ("a,b", 'say "hi"', "two\nlines", "plain")
        ds = TrajectoryDataset(tuple(Trajectory(i, [(0.0, k), (1.0, k + 0.5)], [0.0, 1.5])
                                     for k, i in enumerate(ids)))
        save_dataset(ds, tmp_path / "ds.csv")
        back = load_dataset(tmp_path / "ds.csv")
        assert back.ids == ids
        for a, b in zip(ds.trajectories, back.trajectories):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.timestamps, b.timestamps)

    def test_ids_that_differ_in_outer_whitespace_stay_apart(self, tmp_path):
        ids = (" a", "a", "a\t")
        ds = TrajectoryDataset(tuple(Trajectory(i, [(0.0, k), (1.0, k)]) for k, i in enumerate(ids)))
        save_dataset(ds, tmp_path / "ds.csv")
        back = load_dataset(tmp_path / "ds.csv")
        assert back.ids == ids
        for a, b in zip(ds.trajectories, back.trajectories):
            assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("tid", ["", " ", "\t"])
    def test_load_rejects_blank_ids(self, tmp_path, tid):
        p = write(tmp_path, "blank.csv", f'traj_id,x,y\na,0,0\na,1,0\n"{tid}",0,1\n"{tid}",1,1\n')
        with pytest.raises(IngestError, match="line 4: empty trajectory id"):
            load_dataset(p)

    def test_load_rejects_mixed_timestamp_presence(self, tmp_path):
        p = write(tmp_path, "mixed.csv", "traj_id,x,y,t\na,0,0,1\na,1,0,\nb,0,1,\nb,1,1,\n")
        with pytest.raises(IngestError, match="'a': some rows have timestamps and some do not"):
            load_dataset(p)

    def test_load_orders_rows_by_time(self, tmp_path):
        p = write(tmp_path, "late.csv", "traj_id,x,y,t\na,1,0,2\na,0,0,1\na,2,0,3\n")
        ds = load_dataset(p)
        assert ds.trajectories[0].points[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert ds.trajectories[0].timestamps.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("text, match", [
        ("{crs", "invalid JSON"), ("[1, 2]", "expected a JSON object at the top level"),
        (b"\xff\xfe", "invalid JSON")], ids=["not-json", "not-an-object", "not-utf8"])
    def test_load_rejects_a_bad_sidecar(self, tmp_path, text, match):
        p = write(tmp_path, "ds.csv", "traj_id,x,y\na,0,0\na,1,0\n")
        meta = tmp_path / "ds.csv.meta.json"
        meta.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(IngestError, match=f"ds.csv.meta.json: {match}"):
            load_dataset(p)

    def test_load_refuses_geographic(self, tmp_path):
        text = "traj_id,lat,lon\na,48.85,2.35\na,48.86,2.36\n"
        p = write(tmp_path, "geo.csv", text)
        with pytest.raises(IngestError, match="planar"):
            load_dataset(p)


class TestTrajectoryDataset:
    def test_duplicate_ids_rejected(self):
        def t(i):
            return Trajectory(i, [(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="unique"):
            TrajectoryDataset((t("a"), t("a")), {"kind": "planar"}, {})

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TrajectoryDataset((), {"kind": "planar"}, {})
