import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ogmm
from ogmm.cli import main
from ogmm.geometry import PointCloud
from ogmm.io import sample_shape, write_cloud

TINY_CONFIG = {
    "overlap_fractions": [0.7],
    "cluster_counts": [8],
    "trials": 2,
    "n_points": 64,
    "methods": ["ogmm_unguided", "icp"],
}

PLY_HEADER = (
    b"ply\nformat ascii 1.0\nelement vertex 2\n"
    b"property float x\nproperty float y\nproperty float z\nend_header\n"
)


@pytest.fixture
def cloud_file(tmp_path):
    cloud = sample_shape("composite", 96, seed=11)
    path = tmp_path / "cloud.xyz"
    write_cloud(cloud, path)
    return path


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def stderr_kind(capsys):
    return json.loads(capsys.readouterr().err)["error"]["kind"]


class TestRegisterCommand:
    def test_self_registration_to_stdout(self, tmp_path, cloud_file, capsys):
        code = main(["register", str(cloud_file), str(cloud_file), "--profile", "desk"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rotation = np.asarray(payload["rotation"]).reshape(3, 3)
        assert np.allclose(rotation, np.eye(3), atol=1e-6)
        assert np.allclose(payload["translation"], 0.0, atol=1e-6)
        assert len(payload["overlap_source"]) == 96
        assert "runtime_ms" in payload["diagnostics"]

    def test_out_file(self, tmp_path, cloud_file):
        out = tmp_path / "result.json"
        code = main([
            "register", str(cloud_file), str(cloud_file),
            "--profile", "desk", "--out", str(out),
        ])
        assert code == 0
        assert "rotation" in json.loads(out.read_text())

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["register", str(tmp_path / "nope.xyz"), str(tmp_path / "nope.xyz")])
        assert code == 2
        assert stderr_kind(capsys) == "io"

    @pytest.mark.parametrize(
        "name, body, line",
        [
            ("nan.xyz", b"0 0 0\n1 nan 0\n", 2),
            ("inf.ply", PLY_HEADER + b"0 0 0\n1 -inf 2\n", 9),
            ("accent.xyz", b"0 0 0\n0 1 0\n1 1 \xc3\xa9\n", 3),
            (
                "accent.ply",
                PLY_HEADER.replace(b"ply\n", b"ply\ncomment caf\xc3\xa9\n", 1) + b"0 0 0\n1 1 1\n",
                2,
            ),
            ("negative.ply", PLY_HEADER.replace(b"vertex 2", b"vertex -1") + b"0 0 0\n1 1 1\n", 3),
            ("extra.ply", PLY_HEADER + b"0 0 0\n1 1 1\n2 2 2\n", 10),
        ],
        ids=[
            "nan-xyz", "inf-ply", "non-ascii-xyz", "non-ascii-ply", "negative-count-ply",
            "extra-rows-ply",
        ],
    )
    def test_bad_cloud_contents_are_parse_errors(self, tmp_path, capsys, name, body, line):
        # A nan/inf coordinate, a non-ASCII byte, a negative element count
        # or a row past the declared elements is a parse error (exit 2)
        # that names the line, not a config error from the pipeline.
        path = tmp_path / name
        path.write_bytes(body)
        code = main(["register", str(path), str(path), "--profile", "desk"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "io"
        assert f"{name}:{line}:" in error["message"]

    @pytest.mark.parametrize(
        "name, body, line",
        [("huge.xyz", None, 1), ("huge.ply", PLY_HEADER + b"0 0 0\n1 -1e151 2\n", 9)],
    )
    def test_coordinates_beyond_the_bound_are_parse_errors(
        self, tmp_path, capsys, name, body, line
    ):
        # Squared distances overflow past geometry.COORDINATE_BOUND; such a
        # file is refused at its line (exit 2), not reported as a config
        # error from deep in the pipeline.
        if body is None:
            points = sample_shape("composite", 96, seed=11).points * 1e300
            body = "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in points).encode()
        path = tmp_path / name
        path.write_bytes(body)
        code = main(["register", str(path), str(path), "--profile", "desk"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "io"
        assert f"{name}:{line}:" in error["message"]
        assert "1e+150" in error["message"]

    def test_cloud_too_small_for_profile_is_config_error(self, cloud_file, capsys):
        # paper profile wants 72 geometric clusters; 96 points pass, but a
        # desk-sized cloud under the paper profile must fail loudly.
        small = sample_shape("sphere", 32, seed=1)
        path = cloud_file.parent / "small.xyz"
        write_cloud(small, path)
        code = main(["register", str(path), str(path), "--profile", "paper"])
        assert code == 1
        assert stderr_kind(capsys) == "config"

    def test_collinear_cloud_is_degenerate(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 48)
        line = PointCloud(np.column_stack([t, 2.0 * t, -t]))
        path = tmp_path / "line.xyz"
        write_cloud(line, path)
        code = main(["register", str(path), str(path), "--profile", "desk"])
        assert code == 3
        assert stderr_kind(capsys) == "degenerate"


class TestConfigHandling:
    @pytest.mark.parametrize(
        "data",
        [
            {"trails": 3}, {"register": {"solver": "l2"}}, {"methods": ["gmm_l2"]},
            {"rot_max_deg": 30},
        ],
        ids=["trails", "register-solver", "methods-gmm_l2", "rot_max_deg"],
    )
    def test_unknown_key_is_config_error(self, tmp_path, cloud_file, capsys, data):
        config = write_config(tmp_path, data)
        code = main([
            "register", str(cloud_file), str(cloud_file),
            "--profile", "desk", "--config", str(config),
        ])
        assert code == 1
        assert stderr_kind(capsys) == "config"

    @pytest.mark.parametrize(
        "data",
        [
            {"trials": 1.5}, {"n_points": 100.5}, {"register": {"starts": 2.5}},
            {"register": {"n_geo_clusters": 16.5}}, {"register": {"k_neighbors": 5.5}},
            {"cluster_counts": [8.7]}, {"trials": True}, {"base_seed": True},
        ],
        ids=[
            "trials-float", "n_points-float", "starts-float", "n_geo_clusters-float",
            "k_neighbors-float", "cluster_counts-float", "trials-bool", "base_seed-bool",
        ],
    )
    def test_non_integer_count_is_config_error(self, tmp_path, capsys, data):
        # A count or seed that is not an integer is refused when the config loads,
        # never truncated, and reported as one JSON line, not a traceback.
        config = write_config(tmp_path, data)
        code = main([
            "bench", "--profile", "desk", "--config", str(config),
            "--out", str(tmp_path / "bench.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["kind"] == "config"
        assert "integer" in json.loads(err)["error"]["message"]
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"noise_sigma": float("nan")}, "noise_sigma must be finite"),
            ({"noise_sigma": float("inf")}, "noise_sigma must be finite"),
            ({"density_keep": float("nan")}, "density_keep must lie in (0, 1]"),
            ({"methods": "icp"}, "methods must be a list"),
            ({"methods": {"icp": 1}}, "methods must be a list"),
            ({"overlap_fractions": "0.7"}, "overlap_fractions must be a list"),
            ({"overlap_fractions": 0.7}, "overlap_fractions must be a list"),
            ({"cluster_counts": "8"}, "cluster_counts must be a list"),
            ({"cluster_counts": 8}, "cluster_counts must be a list"),
            ({"register": {"k_neighbors": 0}}, "k_neighbors must be at least 1"),
            ({"noise_sigma": True}, "noise_sigma must be a number"),
            ({"overlap_fractions": [True]}, "an overlap fraction must be a number"),
            ({"overlap_fractions": ["0.7"]}, "an overlap fraction must be a number"),
            ({"density_keep": "0.5"}, "density_keep must be a number"),
            ({"overlap_fractions": [0.7, 0.7]}, "overlap_fractions must list distinct values"),
            ({"overlap_fractions": [1, 1.0]}, "overlap_fractions must list distinct values"),
            ({"cluster_counts": [8, 8]}, "cluster_counts must list distinct values"),
            ({"methods": ["icp", "icp"]}, "methods must list distinct values"),
        ],
        ids=["noise_sigma-nan", "noise_sigma-inf", "density_keep-nan", "methods-str",
             "methods-object", "overlap_fractions-str", "overlap_fractions-float",
             "cluster_counts-str", "cluster_counts-int", "register-k_neighbors-0",
             "noise_sigma-bool", "overlap_fractions-bool", "overlap_fractions-str-item",
             "density_keep-str", "overlap_fractions-repeat", "overlap_fractions-repeat-int",
             "cluster_counts-repeat", "methods-repeat"],
    )
    def test_bad_sweep_value_is_config_error(self, tmp_path, capsys, data, fragment):
        # A non-finite noise level would run unjittered or fully clamped, and a
        # string or an object would be read as the list of its characters or
        # keys; all are refused, under the config's own key names. A zero
        # neighbourhood would leave every ogmm row invalid in a run that exits 0.
        # A bool or a string where a number belongs would run as 1.0 or as
        # the number it spells, or fail naming no key. A repeated sweep value
        # would merge two cells in the summary, and a repeated method would
        # write two rows per trial.
        config = write_config(tmp_path, data)
        code = main([
            "bench", "--profile", "desk", "--config", str(config),
            "--out", str(tmp_path / "bench.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["kind"] == "config"
        assert fragment in json.loads(err)["error"]["message"]
        assert not (tmp_path / "bench.csv").exists()

    def test_invalid_json_is_config_error(self, tmp_path, cloud_file, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code = main([
            "register", str(cloud_file), str(cloud_file), "--config", str(config),
        ])
        assert code == 1
        assert stderr_kind(capsys) == "config"

    def test_missing_config_is_io_error(self, tmp_path, cloud_file, capsys):
        code = main([
            "register", str(cloud_file), str(cloud_file),
            "--config", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        assert stderr_kind(capsys) == "io"

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, dict(TINY_CONFIG, trials=1))
        monkeypatch.setenv("OGMM_SEED", "7")
        assert main(["genpairs", "--config", str(config), "--out", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("OGMM_SEED")
        explicit = write_config(tmp_path, dict(TINY_CONFIG, trials=1, base_seed=7))
        assert main(["genpairs", "--config", str(explicit), "--out", str(tmp_path / "cfg")]) == 0
        capsys.readouterr()
        env_manifest = (tmp_path / "env" / "manifest.json").read_bytes()
        cfg_manifest = (tmp_path / "cfg" / "manifest.json").read_bytes()
        assert env_manifest == cfg_manifest

    def test_bad_seed_env_is_config_error(self, tmp_path, cloud_file, monkeypatch, capsys):
        monkeypatch.setenv("OGMM_SEED", "twelve")
        code = main(["register", str(cloud_file), str(cloud_file), "--profile", "desk"])
        assert code == 1
        assert stderr_kind(capsys) == "config"


class TestBenchAndReport:
    def run_bench_cli(self, tmp_path, name):
        config = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / name
        code = main(["bench", "--config", str(config), "--out", str(out)])
        assert code == 0
        return out

    def test_bench_writes_csv_and_summary(self, tmp_path, capsys):
        out = self.run_bench_cli(tmp_path, "bench.csv")
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + trials x methods
        summary = json.loads((tmp_path / "bench.csv.summary.json").read_text())
        assert summary["rows"] == 4

    def test_report_from_bench(self, tmp_path, capsys):
        out = self.run_bench_cli(tmp_path, "bench.csv")
        code = main(["report", str(out), "--out", str(tmp_path / "report")])
        assert code == 0
        assert (tmp_path / "report" / "by_overlap_fraction.csv").exists()
        assert len(list((tmp_path / "report").glob("*.svg"))) == 5

    def test_report_without_data_is_io_error(self, tmp_path, capsys):
        from ogmm.bench import CSV_HEADER

        empty = tmp_path / "empty.csv"
        empty.write_text(CSV_HEADER + "\n")
        code = main(["report", str(empty), "--out", str(tmp_path / "report")])
        assert code == 2
        assert stderr_kind(capsys) == "io"


class TestGenpairsCommand:
    def test_writes_pairs(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY_CONFIG)
        code = main(["genpairs", "--config", str(config), "--out", str(tmp_path / "pairs")])
        assert code == 0
        manifest = json.loads((tmp_path / "pairs" / "manifest.json").read_text())
        assert manifest["pair_count"] == 2
        assert (tmp_path / "pairs" / manifest["pairs"][0]["path"] / "source.ply").exists()


def test_module_entry_point(tmp_path):
    cloud = sample_shape("sphere", 48, seed=2)
    path = tmp_path / "cloud.xyz"
    write_cloud(cloud, path)
    # The child must import the same ogmm as this session, installed or not.
    package_root = str(Path(ogmm.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    proc = subprocess.run(
        [sys.executable, "-m", "ogmm.cli", "register", str(path), str(path), "--profile", "desk"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "rotation" in json.loads(proc.stdout)
