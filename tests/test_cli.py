import json

import numpy as np
import numpy.testing as npt
import pytest

from dcemetrics.cli import main
from dcemetrics.io import canonical_bytes, read_report, read_tensor, write_tensor
from dcemetrics.phantom import PhantomSpec, Region, generate, make_triple


@pytest.fixture
def phantom_spec_file(tmp_path):
    spec = {
        "grid": [24, 24],
        "regions": [
            {"center": [8, 8], "radii": [4, 4], "baseline": 80.0},
            {
                "center": [16, 15],
                "radii": [5, 4],
                "baseline": 60.0,
                "amplitude": 100.0,
                "onset": 0.5,
            },
        ],
        "n_frames": 5,
        "background": 20.0,
        "seed": 11,
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p, PhantomSpec.from_dict(spec)


def _gen_phantom(tmp_path, spec_file):
    out_dir = tmp_path / "phantom"
    assert main(["phantom", "gen", "--spec", str(spec_file), "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestPhantomGen:
    def test_writes_expected_files(self, tmp_path, phantom_spec_file, capsys):
        spec_file, spec = phantom_spec_file
        out_dir = _gen_phantom(tmp_path, spec_file)
        assert (out_dir / "sequence.raw").exists()
        assert (out_dir / "truth_mask.raw").exists()
        assert (out_dir / "truth.json").exists()
        seq = read_tensor(out_dir / "sequence.raw")
        expected = generate(spec)
        npt.assert_allclose(seq.data, expected.sequence.frames, rtol=1e-6)
        truth = json.loads((out_dir / "truth.json").read_text())
        assert truth["spec"]["seed"] == 11
        assert truth["provenance"]["command"] == "phantom gen"
        assert truth["provenance"]["version"]

    def test_missing_spec_is_io_error(self, tmp_path):
        rc = main(
            ["phantom", "gen", "--spec", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_invalid_spec_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": [8], "regions": []}))
        rc = main(["phantom", "gen", "--spec", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 1


class TestCEMask:
    def test_recovers_truth_mask(self, tmp_path, phantom_spec_file):
        spec_file, spec = phantom_spec_file
        out_dir = _gen_phantom(tmp_path, spec_file)
        mask_path = tmp_path / "mask.raw"
        rc = main(
            [
                "cemask",
                "--seq",
                str(out_dir / "sequence.raw"),
                "--out",
                str(mask_path),
                "--threshold",
                "20",
            ]
        )
        assert rc == 0
        mask = read_tensor(mask_path).data > 0.5
        npt.assert_array_equal(mask, generate(spec).truth_mask.mask)

    def test_missing_sequence(self, tmp_path):
        rc = main(["cemask", "--seq", str(tmp_path / "gone.raw"), "--out", str(tmp_path / "m.raw")])
        assert rc == 2


class TestDistMap:
    def test_weights_and_inversion(self, tmp_path):
        mask = np.zeros((1, 3))
        mask[0, 0] = 1.0
        mpath = tmp_path / "mask.raw"
        write_tensor(mpath, mask)
        wpath = tmp_path / "w.raw"
        assert main(["distmap", "--mask", str(mpath), "--out", str(wpath)]) == 0
        npt.assert_allclose(read_tensor(wpath).data, [[0.1, 0.55, 1.0]], atol=1e-7)
        ipath = tmp_path / "wi.raw"
        assert (
            main(["distmap", "--mask", str(mpath), "--out", str(ipath), "--invert"]) == 0
        )
        npt.assert_allclose(read_tensor(ipath).data, [[1.0, 0.55, 0.1]], atol=1e-7)

    def test_physical_mode_without_spacing_fails_validation(self, tmp_path):
        mpath = tmp_path / "mask.raw"
        write_tensor(mpath, np.ones((3, 3)))
        rc = main(
            ["distmap", "--mask", str(mpath), "--out", str(tmp_path / "w.raw"), "--mode", "physical"]
        )
        assert rc == 1


class TestMetrics:
    def _setup(self, tmp_path, spec, noise=0.0, seed=11):
        spec = PhantomSpec.from_dict({**spec.to_dict(), "noise_sigma": noise, "seed": seed})
        content, style, generated = make_triple(spec, 0, 4)
        seq = generate(spec)
        paths = {}
        for name, arr in [
            ("content", content),
            ("style", style),
            ("generated", generated),
        ]:
            p = tmp_path / f"{name}.raw"
            write_tensor(p, arr)
            paths[name] = p
        seq_path = tmp_path / "seq.raw"
        write_tensor(seq_path, seq.sequence.frames, axis_order="TYX")
        paths["seq"] = seq_path
        return paths

    def test_identical_triple_gives_unit_similarity(self, tmp_path, phantom_spec_file):
        _, spec = phantom_spec_file
        paths = self._setup(tmp_path, spec)
        out = tmp_path / "report.json"
        rc = main(
            [
                "metrics",
                "--generated",
                str(paths["content"]),
                "--content",
                str(paths["content"]),
                "--style",
                str(paths["content"]),
                "--seq",
                str(paths["seq"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = read_report(out)
        entry = report["entries"][0]
        assert entry["ssim_content_vs_gen"] == pytest.approx(1.0, abs=1e-12)
        assert entry["ms_ssim_content_vs_gen"] == pytest.approx(1.0, abs=1e-12)
        assert entry["cw_ssim_content"] == pytest.approx(1.0, abs=1e-12)
        assert entry["cw_ssim_style"] == pytest.approx(1.0, abs=1e-12)
        assert entry["psnr_infinite"] is True
        assert report["provenance"]["command"] == "metrics"

    def test_reports_are_canonically_identical_across_runs(
        self, tmp_path, phantom_spec_file
    ):
        _, spec = phantom_spec_file
        paths = self._setup(tmp_path, spec, noise=2.0)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            rc = main(
                [
                    "metrics",
                    "--generated",
                    str(paths["generated"]),
                    "--content",
                    str(paths["content"]),
                    "--style",
                    str(paths["style"]),
                    "--seq",
                    str(paths["seq"]),
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(read_report(out))
        assert canonical_bytes(outs[0]) == canonical_bytes(outs[1])

    def test_constant_content_exits_nonzero(self, tmp_path, phantom_spec_file, capsys):
        _, spec = phantom_spec_file
        paths = self._setup(tmp_path, spec)
        write_tensor(paths["content"], np.full(spec.grid, 50.0))
        out = tmp_path / "r.json"
        rc = main(
            [
                "metrics",
                "--generated",
                str(paths["generated"]),
                "--content",
                str(paths["content"]),
                "--style",
                str(paths["style"]),
                "--seq",
                str(paths["seq"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 1
        assert "data_range" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_peak_flag(self, tmp_path, phantom_spec_file):
        _, spec = phantom_spec_file
        paths = self._setup(tmp_path, spec)
        rc = main(
            [
                "metrics",
                "--generated",
                str(paths["generated"]),
                "--content",
                str(paths["content"]),
                "--style",
                str(paths["style"]),
                "--seq",
                str(paths["seq"]),
                "--out",
                str(tmp_path / "r.json"),
                "--peak",
                "banana",
            ]
        )
        assert rc == 1


class TestGradcheckCLI:
    def test_runs_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "grad.json"
        assert main(["gradcheck", "--seed", "5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {c["loss_id"] for c in payload["checks"]} == {
            "l1",
            "adv_mse",
            "feature",
            "style_frob",
        }
        assert all(c["max_rel_error"] <= 1e-4 for c in payload["checks"])
        assert payload["provenance"]["seed"] == 5
        printed = capsys.readouterr().out
        assert "max_rel_error" in printed


class TestReportMerge:
    def test_merge_and_csv(self, tmp_path, phantom_spec_file):
        _, spec = phantom_spec_file
        paths = self._reports(tmp_path, spec)
        merged = tmp_path / "merged.json"
        csv_path = tmp_path / "flat.csv"
        rc = main(
            ["report", "merge", *paths, "--out", str(merged), "--csv", str(csv_path)]
        )
        assert rc == 0
        rep = read_report(merged)
        assert len(rep["entries"]) == len(paths)
        assert rep["aggregates"]["nce_to_ce"]["n_entries"] == len(paths)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(paths) + 1

    def _reports(self, tmp_path, spec):
        paths = []
        for i in range(3):
            sub = tmp_path / f"run{i}"
            sub.mkdir()
            p = TestMetrics()._setup(sub, spec, noise=2.0, seed=20 + i)
            out = sub / "report.json"
            rc = main(
                [
                    "metrics",
                    "--generated",
                    str(p["generated"]),
                    "--content",
                    str(p["content"]),
                    "--style",
                    str(p["style"]),
                    "--seq",
                    str(p["seq"]),
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            paths.append(str(out))
        return paths

    def test_missing_input(self, tmp_path):
        rc = main(
            ["report", "merge", str(tmp_path / "absent.json"), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["cemask", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_args_exits_1(self):
        assert main([]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True
