import json
from dataclasses import replace

import numpy as np
import pytest

from ogmm import bench, registration
from ogmm.bench import (
    CSV_COLUMNS,
    CSV_HEADER,
    BenchConfig,
    BenchConfigError,
    BenchDataError,
    config_from_dict,
    format_csv,
    genpairs,
    report,
    run_bench,
    summarize,
    write_bench_csv,
)
from ogmm.registration import RegisterConfig

TINY = BenchConfig.desk(
    overlap_fractions=(0.7,),
    cluster_counts=(8,),
    trials=2,
    n_points=64,
    methods=("ogmm_unguided", "icp"),
)


def strip_runtime(rows):
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


class TestBenchConfig:
    def test_profiles(self):
        paper = BenchConfig()
        assert paper.trials == 20
        assert paper.n_points == 1024
        assert paper.overlap_fractions == (0.7, 0.6, 0.5, 0.4, 0.3)
        desk = BenchConfig.desk()
        assert desk.trials == 3
        assert desk.n_points == 256
        assert desk.register.n_geo_clusters == 16

    def test_rejects_bad_values(self):
        with pytest.raises(BenchConfigError):
            BenchConfig(overlap_fractions=())
        with pytest.raises(BenchConfigError):
            BenchConfig(overlap_fractions=(0.0,))
        with pytest.raises(BenchConfigError):
            BenchConfig(cluster_counts=(0,))
        with pytest.raises(BenchConfigError):
            BenchConfig(methods=("warp_drive",))
        with pytest.raises(BenchConfigError):
            BenchConfig(trials=0)
        with pytest.raises(BenchConfigError):
            BenchConfig(shape_kind="dodecahedron")
        with pytest.raises(BenchConfigError):
            BenchConfig(density_keep=0.0)

    def test_cells_enumerate_cross_product(self):
        config = BenchConfig(overlap_fractions=(0.7, 0.5), cluster_counts=(8, 16, 32))
        cells = config.cells()
        assert len(cells) == 6
        assert [c.index for c in cells] == list(range(6))
        assert cells[0].overlap_fraction == 0.7 and cells[0].n_components == 8
        assert cells[-1].overlap_fraction == 0.5 and cells[-1].n_components == 32

    def test_pair_spec_seeds_deterministic_and_distinct(self):
        config = BenchConfig.desk()
        cells = config.cells()
        spec_a = config.pair_spec(cells[0], 0)
        spec_b = config.pair_spec(cells[0], 0)
        assert spec_a == spec_b
        seeds = {config.pair_spec(c, t).seed for c in cells for t in range(config.trials)}
        assert len(seeds) == len(cells) * config.trials

    def test_config_hash_tracks_content(self):
        base = BenchConfig.desk()
        assert base.config_hash() == BenchConfig.desk().config_hash()
        assert base.config_hash() != BenchConfig.desk(trials=4).config_hash()

    def test_json_dict_round_trips_through_overlay(self):
        config = BenchConfig.desk(noise_sigma=0.02)
        rebuilt = config_from_dict(config.to_json_dict(), base=BenchConfig())
        assert rebuilt == config

    def test_pair_protocol_checked_at_load(self):
        # PairSpec validates the pair fields; a bad one fails when the
        # config is built, not at the first pair of the sweep.
        with pytest.raises(BenchConfigError, match="n_points"):
            BenchConfig(n_points=0)

    def test_numpy_integers_are_plain_ints(self):
        # Counts may arrive as numpy integers; they are stored as ints so
        # the config still serialises and hashes.
        config = BenchConfig.desk(
            trials=np.int64(2), cluster_counts=(np.int32(8),),
            register=RegisterConfig.desk(starts=np.int64(2)),
        )
        assert type(config.trials) is int and type(config.cluster_counts[0]) is int
        assert type(config.register.starts) is int
        assert config.config_hash() == BenchConfig.desk(
            trials=2, cluster_counts=(8,), register=RegisterConfig.desk(starts=2)
        ).config_hash()


class TestConfigFromDict:
    def test_overlay_keeps_base_fields(self):
        base = BenchConfig.desk()
        config = config_from_dict({"trials": 5}, base=base)
        assert config.trials == 5
        assert config.n_points == base.n_points

    def test_register_section(self):
        config = config_from_dict({"register": {"n_components": 12}}, base=BenchConfig.desk())
        assert config.register.n_components == 12
        assert config.register.n_geo_clusters == 16

    def test_unknown_keys_rejected(self):
        with pytest.raises(BenchConfigError):
            config_from_dict({"trails": 5})
        with pytest.raises(BenchConfigError):
            config_from_dict({"register": {"n_componentz": 12}})
        # Knobs BenchConfig and RegisterConfig dropped, now constants, are
        # rejected, not silently ignored.
        for removed in ("rot_max_deg", "trans_max", "jitter_clip", "eta"):
            with pytest.raises(BenchConfigError, match=removed):
                config_from_dict({removed: 1}, base=BenchConfig.desk())
        for removed in (
            "eta", "kmeans_max_iter", "kmeans_tol",
            "sinkhorn_epsilon", "sinkhorn_max_iter", "sinkhorn_tol",
            "d", "attention_heads", "attention_seed", "tau", "temperature",
            "feature_seed", "cluster_seed",
        ):
            with pytest.raises(BenchConfigError, match=removed):
                config_from_dict({"register": {removed: 1}})
        with pytest.raises(BenchConfigError):
            config_from_dict([1, 2, 3])

    def test_invalid_values_rejected(self):
        with pytest.raises(BenchConfigError):
            config_from_dict({"trials": 0})
        with pytest.raises(BenchConfigError):
            config_from_dict({"register": {"overlap_mode": "oracle"}})


class TestRunBench:
    def test_row_counts_and_order(self):
        rows, summary = run_bench(TINY)
        assert len(rows) == 1 * 2 * 2  # cells x trials x methods
        assert [r["method"] for r in rows] == ["ogmm_unguided", "icp"] * 2
        # Rows carry the CSV columns plus the flags and the failure text the
        # summary reports.
        extra = {"gimbal_suspect", "message", "converged"}
        assert all(set(r) == set(CSV_COLUMNS) | extra for r in rows)
        assert summary["rows"] == len(rows)
        assert summary["errors"] == 0

    def test_rerun_identical_except_runtime(self):
        rows_a, _ = run_bench(TINY)
        rows_b, _ = run_bench(TINY)
        assert strip_runtime(rows_a) == strip_runtime(rows_b)

    def test_infeasible_cells_become_error_rows(self):
        # 64 mixture components but only 48 points: the pipeline refuses,
        # the sweep keeps going, and icp still reports numbers.
        config = replace(TINY, cluster_counts=(64,), n_points=48)
        rows, summary = run_bench(config)
        ogmm_rows = [r for r in rows if r["method"] == "ogmm_unguided"]
        icp_rows = [r for r in rows if r["method"] == "icp"]
        assert all(r["error"] == "invalid" for r in ogmm_rows)
        assert all(r["mae_r_deg"] is None for r in ogmm_rows)
        assert all(not r["error"] for r in icp_rows)
        assert summary["errors"] == len(ogmm_rows)

    def test_summary_lists_failure_messages(self, monkeypatch):
        clean_rows, _ = run_bench(TINY)

        def failing_register(*args, **kwargs):
            raise ValueError("no overlap mass")

        monkeypatch.setattr(bench, "register", failing_register)
        rows, summary = run_bench(TINY)
        entry = summary["cells"][0]["methods"]["ogmm_unguided"]
        assert entry["errors"] == 2
        assert entry["failures"] == [
            {"pair_id": f"c000t00{t}", "error": "invalid", "message": "no overlap mass"}
            for t in range(2)
        ]
        assert summary["cells"][0]["methods"]["icp"]["failures"] == []
        # The message stays off the CSV: icp's rows are unchanged, and a
        # failed row differs only in blanked metrics.
        assert "no overlap mass" not in format_csv(rows)
        for clean, failed in zip(strip_runtime(clean_rows), strip_runtime(rows)):
            if failed["method"] == "icp":
                assert failed == clean
            else:
                assert failed["error"] == "invalid" and failed["mae_r_deg"] is None

    def test_summary_counts_icp_out_of_budget(self, monkeypatch):
        rows, summary = run_bench(TINY)
        methods = summary["cells"][0]["methods"]
        assert [r["converged"] for r in rows] == [None, True] * 2
        assert methods["icp"]["unconverged"] == 0
        assert "unconverged" not in methods["ogmm_unguided"]
        # One iteration is too few for these pairs: every ICP row runs out.
        monkeypatch.setattr(registration, "ICP_MAX_ITER", 1)
        rows, summary = run_bench(TINY)
        assert [r["converged"] for r in rows] == [None, False] * 2
        assert summary["cells"][0]["methods"]["icp"]["unconverged"] == 2
        # The flag stays off the CSV.
        lines = format_csv(rows).splitlines()
        assert lines[0] == CSV_HEADER
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)
        assert "False" not in format_csv(rows)

    def test_summary_means_match_rows(self):
        rows, summary = run_bench(TINY)
        cell = summary["cells"][0]
        for method in TINY.methods:
            scored = [r for r in rows if r["method"] == method and not r["error"]]
            expected = float(np.mean([r["mae_r_deg"] for r in scored]))
            assert cell["methods"][method]["n"] == len(scored)
            suspects = sum(1 for r in scored if r["gimbal_suspect"])
            assert cell["methods"][method]["gimbal_suspect"] == suspects
            assert cell["methods"][method]["mean_mae_r_deg"] == pytest.approx(expected)

    def test_summarize_handles_empty_method(self):
        rows, _ = run_bench(TINY)
        only_icp = [r for r in rows if r["method"] == "icp"]
        summary = summarize(TINY, only_icp)
        entry = summary["cells"][0]["methods"]["ogmm_unguided"]
        assert entry["n"] == 0
        assert entry["mean_mae_r_deg"] is None


class TestCsv:
    def test_format_and_blank_fields(self):
        rows, _ = run_bench(TINY)
        text = format_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_error_rows_have_empty_metrics(self):
        config = replace(TINY, cluster_counts=(64,), n_points=48, methods=("ogmm_unguided",))
        rows, _ = run_bench(config)
        line = format_csv(rows).splitlines()[1]
        parts = dict(zip(CSV_COLUMNS, line.split(",")))
        assert parts["error"] == "invalid"
        assert parts["mae_r_deg"] == ""
        assert parts["runtime_ms"] == ""

    def test_floats_round_trip(self, tmp_path):
        rows, _ = run_bench(TINY)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        from ogmm.bench import _parse_bench_csv

        parsed = _parse_bench_csv(path)
        assert len(parsed) == len(rows)
        assert float(parsed[0]["mae_r_deg"]) == rows[0]["mae_r_deg"]


class TestGenpairs:
    def test_layout_and_manifest(self, tmp_path):
        out = tmp_path / "pairs"
        manifest = genpairs(TINY, out)
        assert manifest["pair_count"] == 2
        assert (out / "manifest.json").exists()
        for entry in manifest["pairs"]:
            pair_dir = out / entry["path"]
            for name in ("source.ply", "target.ply", "gt.json", "labels.json"):
                assert (pair_dir / name).exists()
        gt = json.loads((out / manifest["pairs"][0]["path"] / "gt.json").read_text())
        assert len(gt["rotation"]) == 9
        assert len(gt["translation"]) == 3

    def test_rerun_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        genpairs(TINY, out_a)
        genpairs(TINY, out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


class TestReport:
    def make_csv(self, tmp_path, config=TINY):
        rows, _ = run_bench(config)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        return path, rows

    def test_aggregates_and_charts(self, tmp_path):
        config = replace(TINY, overlap_fractions=(0.7, 0.5))
        path, rows = self.make_csv(tmp_path, config)
        written = report(path, tmp_path / "report")
        agg = (tmp_path / "report" / "by_overlap_fraction.csv").read_text()
        lines = agg.splitlines()
        # 2 overlap values x 2 methods, plus the header
        assert len(lines) == 5
        scored = [
            r for r in rows
            if r["method"] == "icp" and r["overlap_fraction"] == 0.7 and not r["error"]
        ]
        expected = np.mean([r["mae_r_deg"] for r in scored])
        by_key = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
        got = float(by_key[("0.7", "icp")][3])
        assert got == pytest.approx(expected)
        assert len(written["charts"]) == 5
        svg = (tmp_path / "report" / "overlap_fraction_mae_r_deg.svg").read_text()
        # one marker per (axis value, method) mean
        assert svg.count("<circle") == 4

    def test_error_only_csv_rejected(self, tmp_path):
        config = replace(TINY, cluster_counts=(64,), n_points=48, methods=("ogmm_unguided",))
        path, _ = self.make_csv(tmp_path, config)
        with pytest.raises(BenchDataError):
            report(path, tmp_path / "report")

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,foo\n")
        with pytest.raises(BenchDataError):
            report(path, tmp_path / "report")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BenchDataError):
            report(tmp_path / "nope.csv", tmp_path / "report")
