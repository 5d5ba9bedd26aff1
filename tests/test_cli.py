import csv
import json

import numpy as np
import pytest

from trajkit import (DistanceMatrix, Trajectory, TrajectoryDataset, criteria, cut, hca,
                     load_dataset, load_matrix, save_dataset, save_matrix)
from trajkit.clustering import ClusterAssignment
from trajkit.cli import main
from trajkit.dataset import write_csv


SPEC = {
    "bundles": [
        {"anchor": [[0.0, 0.0], [30.0, 0.0]], "count": 8, "jitter": 0.4, "points": [6, 9]},
        {"anchor": [[0.0, 40.0], [30.0, 40.0]], "count": 8, "jitter": 0.4, "points": [6, 9]},
        {"anchor": [[60.0, 0.0], [60.0, 30.0]], "count": 8, "jitter": 0.4, "points": [6, 9]},
    ]
}


@pytest.fixture()
def pipeline(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    paths = {
        "spec": spec,
        "dataset": tmp_path / "ds.csv",
        "labels": tmp_path / "labels.csv",
        "matrix": tmp_path / "m.trjd",
        "matrix_csv": tmp_path / "m.csv",
        "clusters": tmp_path / "clusters.csv",
        "criteria": tmp_path / "criteria.csv",
        "bench": tmp_path / "bench.json",
    }
    return paths


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestPipeline:
    def test_synth_matrix_cluster_criteria(self, pipeline, capsys):
        assert main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]),
                     "--labels", str(pipeline["labels"]), "--seed", "7"]) == 0
        assert main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
                     "--distance", "sspd", "--csv", str(pipeline["matrix_csv"])]) == 0
        assert main(["cluster", str(pipeline["matrix"]), "-o", str(pipeline["clusters"]),
                     "--method", "hca", "--linkage", "ward", "--k", "3"]) == 0
        assert main(["criteria", str(pipeline["matrix"]), "-o", str(pipeline["criteria"]),
                     "--linkage", "ward", "--k-max", "6"]) == 0

        labels = {r["traj_id"]: r["label"] for r in read_rows(pipeline["labels"])}
        clusters = read_rows(pipeline["clusters"])
        assert len(clusters) == 24
        # the three bundles are far apart: the cut must match the labels
        from collections import defaultdict
        seen = defaultdict(set)
        for row in clusters:
            seen[row["cluster"]].add(labels[row["traj_id"]])
        assert all(len(v) == 1 for v in seen.values())
        # exactly one exemplar per cluster
        per_cluster = defaultdict(int)
        for row in clusters:
            per_cluster[row["cluster"]] += int(row["is_exemplar"])
        assert all(v == 1 for v in per_cluster.values())

        out = capsys.readouterr().out
        assert "computed 24x24 sspd matrix" in out
        assert "clustered 24 items" in out

    def test_criteria_csv_reparses_to_the_library_values(self, pipeline):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "7"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
              "--distance", "sspd"])
        main(["criteria", str(pipeline["matrix"]), "-o", str(pipeline["criteria"]),
              "--linkage", "average", "--k-min", "1", "--k-max", "5"])
        m = load_matrix(pipeline["matrix"])
        dend = hca(m, linkage="average")
        rows = read_rows(pipeline["criteria"])
        assert [int(r["k"]) for r in rows] == [1, 2, 3, 4, 5]
        for row in rows:
            crit = criteria(cut(dend, int(row["k"])), m)
            assert float(row["bc"]) == crit.bc
            assert float(row["wc"]) == crit.wc
            assert row["exemplar_ids"].split("|") == [m.ids[e] for e in crit.exemplars]

    def test_criteria_csv_is_the_one_written_from_one_call_per_cut(self, pipeline, tmp_path):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "3"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
              "--distance", "dtw"])
        assert main(["criteria", str(pipeline["matrix"]), "-o", str(pipeline["criteria"]),
                     "--k-min", "2", "--k-max", "24"]) == 0
        m = load_matrix(pipeline["matrix"])
        dend = hca(m, linkage="ward")
        rows = []
        for k in range(2, 25):
            crit = criteria(cut(dend, k), m)
            rows.append([k, repr(crit.bc), repr(crit.wc), "|".join(m.ids[e] for e in crit.exemplars)])
        write_csv(tmp_path / "want.csv", ["k", "bc", "wc", "exemplar_ids"], rows)
        assert pipeline["criteria"].read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_ap_cluster_command(self, pipeline):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "7"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
              "--distance", "sspd"])
        assert main(["cluster", str(pipeline["matrix"]), "-o", str(pipeline["clusters"]),
                     "--method", "ap"]) == 0
        rows = read_rows(pipeline["clusters"])
        k = len({r["cluster"] for r in rows})
        assert k >= 3
        exemplars = [r for r in rows if r["is_exemplar"] == "1"]
        assert len(exemplars) == k

    def test_matrix_binary_is_deterministic(self, pipeline, tmp_path):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "3"])
        out1 = tmp_path / "m1.trjd"
        out2 = tmp_path / "m2.trjd"
        main(["matrix", str(pipeline["dataset"]), "-o", str(out1), "--distance", "dtw"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(out2), "--distance", "dtw"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_ingest_command(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("traj_id,lat,lon\nv1,48.85,2.35\nv1,48.86,2.36\n"
                       "v2,48.80,2.40\nv2,48.81,2.41\nshort,48.0,2.0\n",
                       encoding="utf-8")
        out = tmp_path / "ds.csv"
        assert main(["ingest", str(raw), "-o", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.ids == ("v1", "v2")
        assert ds.crs["kind"] == "projected-wgs84"
        assert "dropped: 1" in capsys.readouterr().out

    def test_ingest_has_no_wgs84_flag(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("traj_id,lat,lon\nv1,48.85,2.35\nv1,48.86,2.36\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", str(raw), "-o", str(tmp_path / "ds.csv"), "--wgs84"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --wgs84" in capsys.readouterr().err
        assert not (tmp_path / "ds.csv").exists()

    def test_ingest_has_no_format_flag(self, tmp_path, capsys):
        raw = tmp_path / "raw.geojson"
        raw.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "id": "v1",
             "geometry": {"type": "LineString", "coordinates": [[2.35, 48.85], [2.36, 48.86]]}}]}),
            encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", str(raw), "-o", str(tmp_path / "ds.csv"), "--format", "geojson"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format geojson" in capsys.readouterr().err
        assert main(["ingest", str(raw), "-o", str(tmp_path / "ds.csv")]) == 0
        assert load_dataset(tmp_path / "ds.csv").crs["kind"] == "projected-wgs84"

    def test_ids_that_need_quoting_survive_cluster_and_criteria(self, tmp_path):
        ids = ("a,b", 'say "hi"', "c|d")
        ds = TrajectoryDataset(tuple(Trajectory(i, [(0.0, k), (1.0, k), (2.0, k + 0.5)])
                                     for k, i in enumerate(ids)))
        save_dataset(ds, tmp_path / "ds.csv")
        matrix, clusters, crit = tmp_path / "m.trjd", tmp_path / "c.csv", tmp_path / "k.csv"
        assert main(["matrix", str(tmp_path / "ds.csv"), "-o", str(matrix), "--distance", "sspd"]) == 0
        assert main(["cluster", str(matrix), "-o", str(clusters), "--method", "hca", "--k", "2"]) == 0
        assert main(["criteria", str(matrix), "-o", str(crit), "--k-max", "3"]) == 0
        with open(clusters, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == 3 for r in rows) and [r[0] for r in rows[1:]] == list(ids)
        m = load_matrix(matrix)
        dend = hca(m, linkage="ward")
        with open(crit, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == 4 for r in rows)
        for row in rows[1:]:
            exemplars = criteria(cut(dend, int(row[0])), m).exemplars
            assert row[3] == "|".join(m.ids[e] for e in exemplars)

    def test_bench_command(self, pipeline):
        assert main(["bench", "-o", str(pipeline["bench"]), "--n", "8", "--points", "6",
                     "--distances", "dtw,hausdorff"]) == 0
        report = json.loads(pipeline["bench"].read_text(encoding="utf-8"))
        assert report["n"] == 8
        assert set(report["timings"]) == {"dtw", "hausdorff"}
        assert all(row["serial"] > 0 for row in report["timings"].values())


class TestErrorPaths:
    def test_missing_eps_d_is_a_clean_failure(self, pipeline, capsys):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "1"])
        rc = main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
                   "--distance", "lcss"])
        assert rc == 1
        assert "eps_d" in capsys.readouterr().err

    def test_bench_without_repeats_is_a_clean_failure(self, pipeline, capsys):
        rc = main(["bench", "-o", str(pipeline["bench"]), "--n", "4", "--repeats", "0"])
        assert rc == 1
        assert "repeats must be >= 1" in capsys.readouterr().err
        assert not pipeline["bench"].exists()

    def test_unknown_distance_is_a_clean_failure(self, pipeline, capsys):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "1"])
        rc = main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
                   "--distance", "cosine"])
        assert rc == 1
        assert "unknown distance" in capsys.readouterr().err

    def test_hca_without_k_is_a_clean_failure(self, pipeline, capsys):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "1"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
              "--distance", "sspd"])
        rc = main(["cluster", str(pipeline["matrix"]), "-o", str(pipeline["clusters"]),
                   "--method", "hca"])
        assert rc == 1
        assert "--k" in capsys.readouterr().err

    def test_unknown_ap_preference_is_a_clean_failure(self, pipeline, capsys):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "1"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
              "--distance", "sspd"])
        cluster = ["cluster", str(pipeline["matrix"]), "-o", str(pipeline["clusters"]),
                   "--method", "ap"]
        capsys.readouterr()
        assert main(cluster + ["--preference", "min-distance"]) == 1
        assert ("unknown preference 'min-distance'; pass a number or 'min-similarity'"
                in capsys.readouterr().err)
        assert not pipeline["clusters"].exists()
        assert main(cluster + ["--preference=-40.5"]) == 0
        assert "preference=-40.5," in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_ap_preference_is_a_clean_failure(self, pipeline, capsys, value):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "1"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]),
              "--distance", "sspd"])
        capsys.readouterr()
        rc = main(["cluster", str(pipeline["matrix"]), "-o", str(pipeline["clusters"]),
                   "--method", "ap", f"--preference={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: affinity_propagation: preference must be finite")
        assert not pipeline["clusters"].exists()

    def test_ap_on_an_empty_matrix_is_a_clean_failure(self, tmp_path, capsys):
        empty = tmp_path / "empty.trjd"
        save_matrix(DistanceMatrix((), "sspd", np.zeros((0, 0))), empty)
        rc = main(["cluster", str(empty), "-o", str(tmp_path / "c.csv"), "--method", "ap"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: affinity_propagation: empty matrix")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("doc, reason", [
        ({"bundles": [{"count": 3}]}, "bundle 0: missing 'anchor'"),
        ([{"anchor": [[0, 0], [1, 0]], "count": 3}], "expected a JSON object at the top level"),
        ({"bundles": []}, "spec JSON needs a nonempty 'bundles' list"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": 2}, [1, 2]]},
         "bundle 1: expected an object"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": [2]}]},
         "bundle 0: bundle count must be an int >= 1, got [2]"),
        ({"bundles": [{"anchor": [[0, 0]], "count": 2}]}, "bundle 0: bundle anchor must be a polyline"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": 2.7}]},
         "bundle 0: bundle count must be an int >= 1, got 2.7"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": "3"}]},
         "bundle 0: bundle count must be an int >= 1, got '3'"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": True}]},
         "bundle 0: bundle count must be an int >= 1, got True"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": 2, "points": [2.5, 3]}]},
         "bundle 0: bundle points range must be two ints with 2 <= lo <= hi, got [2.5, 3]"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": 2, "points": [3, "4"]}]},
         "bundle 0: bundle points range must be two ints with 2 <= lo <= hi, got [3, '4']"),
        ({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": 2, "jitter": "0.5"}]},
         "bundle 0: bundle jitter must be a finite number >= 0, got '0.5'"),
        ({"bundles": [{"anchor": [["0", "0"], ["1", True]], "count": 2}]},
         "bundle 0: bundle anchor must be finite numbers"),
    ], ids=["no-anchor", "top-level-list", "no-bundles", "bundle-not-object", "bad-count",
            "short-anchor", "float-count", "string-count", "bool-count", "float-points",
            "string-points", "string-jitter", "string-anchor"])
    def test_malformed_synth_spec_is_a_clean_failure(self, tmp_path, capsys, doc, reason):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["synth", str(spec), "-o", str(tmp_path / "ds.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}: {reason}")
        assert not (tmp_path / "ds.csv").exists()

    def test_synth_spec_values_reach_the_sidecar_as_numbers(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"bundles": [{"anchor": [[0, 0], [1, 0]], "count": 2,
                                                 "jitter": 0, "points": [3, 4]}]}),
                        encoding="utf-8")
        assert main(["synth", str(spec), "-o", str(tmp_path / "ds.csv")]) == 0
        meta = (tmp_path / "ds.csv.meta.json").read_text(encoding="utf-8")
        assert '"jitter": 0.0,' in meta
        assert load_dataset(tmp_path / "ds.csv").provenance["bundles"] == [
            {"count": 2, "jitter": 0.0, "points": [3, 4], "anchor_points": 2}]

    def test_synth_spec_that_is_not_json_is_a_clean_failure(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{bundles", encoding="utf-8")
        assert main(["synth", str(spec), "-o", str(tmp_path / "ds.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}: invalid JSON: ")

    @pytest.mark.parametrize("feature, reason", [
        (None, "expected a JSON object at the top level"),
        ({"geometry": {"type": "LineString", "coordinates": 5}},
         "feature 0: coordinates must be a list"),
        ({"geometry": {"type": "LineString", "coordinates": [[2.35, 48.85], 2.36]}},
         "feature 0: coordinate 1 is not a lon,lat pair"),
        ({"geometry": {"type": "LineString", "coordinates": [[2.35, 48.85], [2.36, 48.86]]},
          "properties": [1]}, "feature 0: properties must be an object"),
        ({"geometry": {"type": "LineString", "coordinates": [[2.35, 48.85], [2.36, "x"]]}},
         "feature 0, coordinate 1: bad coordinate"),
    ], ids=["top-level-list", "coordinates-number", "bare-number", "properties-list",
            "bad-coordinate"])
    def test_malformed_geojson_is_a_clean_failure(self, tmp_path, capsys, feature, reason):
        raw = tmp_path / "raw.geojson"
        doc = [] if feature is None else {"type": "FeatureCollection",
                                          "features": [{"type": "Feature", "id": "r"} | feature]}
        raw.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["ingest", str(raw), "-o", str(tmp_path / "ds.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert not (tmp_path / "ds.csv").exists()

    @pytest.mark.parametrize("csv_text, meta, reason", [
        ("traj_id,x,y\na,0,0\na,1,0\n", "[]", "ds.csv.meta.json: expected a JSON object"),
        ("traj_id,x,y\na,0,0\na,1,0\n", "{crs", "ds.csv.meta.json: invalid JSON"),
        ("traj_id,x,y\na,0,0\na,nan,0\n", None, "line 3: bad coordinate"),
    ], ids=["sidecar-not-an-object", "sidecar-not-json", "nan-coordinate"])
    def test_malformed_dataset_is_a_clean_matrix_failure(self, tmp_path, capsys, csv_text, meta,
                                                         reason):
        (tmp_path / "ds.csv").write_text(csv_text, encoding="utf-8")
        if meta is not None:
            (tmp_path / "ds.csv.meta.json").write_text(meta, encoding="utf-8")
        rc = main(["matrix", str(tmp_path / "ds.csv"), "-o", str(tmp_path / "m.trjd"),
                   "--distance", "dtw"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert not (tmp_path / "m.trjd").exists()

    def test_missing_input_file_is_a_clean_failure(self, tmp_path, capsys):
        rc = main(["matrix", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "m.trjd"),
                   "--distance", "dtw"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_matrix_job_is_a_clean_failure(self, tmp_path, capsys):
        # sowd samples a walk by arc length; one of length zero has no samples.
        stuck = Trajectory("stuck", [(1.0, 1.0), (1.0, 1.0)])
        save_dataset(TrajectoryDataset((stuck, Trajectory("ok", [(0.0, 0.0), (3.0, 0.0)]))),
                     tmp_path / "ds.csv")
        rc = main(["matrix", str(tmp_path / "ds.csv"), "-o", str(tmp_path / "m.trjd"),
                   "--distance", "sowd"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sowd(samples_per_unit=1.0) failed on 1 pair(s): ('stuck', 'ok')")
        assert "Traceback" not in err
        assert not (tmp_path / "m.trjd").exists()

    @pytest.mark.parametrize("flag, form", [("--gap", "x,y"), ("--start-box", "min_x,min_y,max_x,max_y"),
                                            ("--end-box", "min_x,min_y,max_x,max_y")])
    @pytest.mark.parametrize("problem", ["one-more", "one-less", "word", "nan", "inf", "empty"])
    def test_number_list_of_the_wrong_form_is_a_usage_error(self, tmp_path, capsys, flag, form,
                                                            problem):
        good = ["1"] * (form.count(",") + 1)
        value = {"one-more": good + ["1"], "one-less": good[1:], "word": good[1:] + ["one"],
                 "nan": good[1:] + ["nan"], "inf": good[1:] + ["-inf"], "empty": [""]}[problem]
        value = ",".join(value)
        command = (["matrix", str(tmp_path / "ds.csv"), "-o", str(tmp_path / "m.trjd"),
                    "--distance", "erp"] if flag == "--gap"
                   else ["ingest", str(tmp_path / "raw.csv"), "-o", str(tmp_path / "ds.csv")])
        with pytest.raises(SystemExit) as exit_info:
            main(command + [f"{flag}={value}"])
        assert exit_info.value.code == 2
        assert (f"argument {flag}: expected {form} as finite numbers, got {value!r}"
                in capsys.readouterr().err)

    def test_number_lists_reach_the_library(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("traj_id,x,y\na,0,0\na,5,5\nb,10,10\nb,20,20\n", encoding="utf-8")
        ds = tmp_path / "ds.csv"
        assert main(["ingest", str(raw), "-o", str(ds), "--start-box=-1,-1,1e0,1"]) == 0
        assert load_dataset(ds).ids == ("a",)
        assert main(["ingest", str(raw), "-o", str(ds), "--end-box", "15,15,25,25"]) == 0
        assert load_dataset(ds).ids == ("b",)
        assert main(["matrix", str(ds), "-o", str(tmp_path / "m.trjd"), "--distance", "erp",
                     "--gap=1.5,-2"]) == 0
        assert load_matrix(tmp_path / "m.trjd").kind == "erp(gap=(1.5, -2.0))"

    def test_criteria_k_range_is_checked(self, pipeline, capsys):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "1"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]), "--distance", "sspd"])
        capsys.readouterr()
        for k_min, k_max in (("0", "3"), ("4", "3"), ("1", "25")):
            rc = main(["criteria", str(pipeline["matrix"]), "-o", str(pipeline["criteria"]),
                       "--k-min", k_min, "--k-max", k_max])
            assert rc == 1
            assert capsys.readouterr().err == "error: criteria: need 1 <= k-min <= k-max <= 24\n"
        assert not pipeline["criteria"].exists()

    def test_ap_that_does_not_converge_warns(self, pipeline, capsys):
        main(["synth", str(pipeline["spec"]), "-o", str(pipeline["dataset"]), "--seed", "1"])
        main(["matrix", str(pipeline["dataset"]), "-o", str(pipeline["matrix"]), "--distance", "sspd"])
        capsys.readouterr()
        assert main(["cluster", str(pipeline["matrix"]), "-o", str(pipeline["clusters"]),
                     "--method", "ap", "--max-iter", "2"]) == 0
        assert "warning: affinity propagation did not converge" in capsys.readouterr().err
        assert len(read_rows(pipeline["clusters"])) == 24

    def test_corrupt_matrix_file_is_a_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.trjd"
        bad.write_bytes(b"garbage-not-a-matrix")
        rc = main(["cluster", str(bad), "-o", str(tmp_path / "c.csv"),
                   "--method", "hca", "--k", "2"])
        assert rc == 1
        assert "magic" in capsys.readouterr().err
