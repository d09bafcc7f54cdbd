import copy
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from dcemetrics import __version__
from dcemetrics.cli import main
from dcemetrics.io import canonical_bytes, read_header, read_report, read_tensor, write_tensor
from dcemetrics.phantom import PhantomSpec, Region, generate, make_triple

SPEC = {
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


@pytest.fixture
def phantom_spec_file(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(SPEC))
    return p, PhantomSpec.from_dict(SPEC)


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

    @pytest.mark.parametrize("field", [
        "center", "radii", "baseline", "amplitude", "onset", "alpha", "beta",
        "noise_sigma", "motion", "background",
    ])
    def test_non_finite_field_exits_1_without_output(self, tmp_path, capsys, field):
        # unchecked, a NaN radius erases the enhancing region and a NaN onset flattens its curve
        spec = copy.deepcopy(SPEC)
        owner = spec if field in ("noise_sigma", "motion", "background") else spec["regions"][1]
        owner[field] = [math.nan, 4.0] if field in ("center", "radii") else math.nan
        rc, out_dir = _gen_from(tmp_path, spec)
        assert rc == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(noise_sigam=2.0), "unknown PhantomSpec keys ['noise_sigam']"),
        (lambda d: d["regions"][1].update(amplitdue=1.0), "unknown Region keys ['amplitdue']"),
        (lambda d: d.pop("regions"), "PhantomSpec is missing required keys ['regions']"),
        (lambda d: d["regions"][0].pop("baseline"), "Region is missing required keys ['baseline']"),
        (lambda d: d.update(spacing_mm=[]), "spacing_mm has 0 entries for 2 spatial axes"),
    ], ids=["unknown-spec-key", "unknown-region-key", "missing-spec-key", "missing-region-key",
            "empty-spacing"])
    def test_spec_keys_must_be_fields(self, tmp_path, capsys, edit, message):
        # unchecked, a misspelled key is ignored and a missing one crashes with a KeyError
        spec = copy.deepcopy(SPEC)
        edit(spec)
        rc, out_dir = _gen_from(tmp_path, spec)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


def _gen_from(tmp_path, spec: dict):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    return main(["phantom", "gen", "--spec", str(spec_file), "--out-dir", str(out_dir)]), out_dir


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

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_1(self, tmp_path, phantom_spec_file, capsys, threshold):
        out_dir = _gen_phantom(tmp_path, phantom_spec_file[0])
        mask_path = tmp_path / "mask.raw"
        argv = ["cemask", "--seq", str(out_dir / "sequence.raw"), "--out", str(mask_path)]
        assert main([*argv, f"--threshold={threshold}"]) == 1
        assert "threshold must be finite" in capsys.readouterr().err
        assert not mask_path.exists() and not (tmp_path / "mask.raw.json").exists()


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_physical_mode_with_bad_sidecar_spacing_fails_validation(self, tmp_path, capsys, bad):
        mpath = _mask_with_sidecar_spacing(tmp_path, [bad, 1.0])
        wpath = tmp_path / "w.raw"
        rc = main(["distmap", "--mask", str(mpath), "--out", str(wpath), "--mode", "physical"])
        assert rc == 1
        assert "finite and positive" in capsys.readouterr().err
        assert not wpath.exists()

    @pytest.mark.parametrize("spacing, message", [
        ([float("nan"), 0.0], "finite and positive"),
        ([-1.0, 1.0], "finite and positive"),
        ([float("inf"), 1.0], "finite and positive"),
        ([1.0], "1 entries for 2 spatial axes"),
    ])
    def test_voxel_mode_rejects_bad_sidecar_spacing(self, tmp_path, capsys, spacing, message):
        # voxel mode measures no spacing but would copy it into the output sidecar
        mpath = _mask_with_sidecar_spacing(tmp_path, spacing)
        wpath = tmp_path / "w.raw"
        assert main(["distmap", "--mask", str(mpath), "--out", str(wpath)]) == 1
        assert message in capsys.readouterr().err
        assert not wpath.exists() and not (tmp_path / "w.raw.json").exists()


    @pytest.mark.parametrize("sidecar", [
        {"dims": [4, 4], "axis_order": "Y", "dtype": "f32"},
        {"dims": [-4, -4], "axis_order": "YX", "dtype": "f32"},
        {"dims": ["a", 4], "axis_order": "YX", "dtype": "f32"},
        "dims, axis_order, dtype",  # passes a key check by substring
        [4, 4],
    ], ids=["short-axis-order", "negative-dims", "string-dims", "json-string", "json-list"])
    def test_corrupt_sidecar_exits_2(self, tmp_path, capsys, sidecar):
        mpath = tmp_path / "mask.raw"
        write_tensor(mpath, np.eye(4))
        (tmp_path / "mask.raw.json").write_text(json.dumps(sidecar))
        wpath = tmp_path / "w.raw"
        assert main(["distmap", "--mask", str(mpath), "--out", str(wpath)]) == 2
        assert "sidecar" in capsys.readouterr().err
        assert not wpath.exists() and not (tmp_path / "w.raw.json").exists()


def _mask_with_sidecar_spacing(tmp_path, spacing):
    """A 3x3 mask whose sidecar is edited to carry ``spacing``, which write_tensor refuses."""
    mpath = tmp_path / "mask.raw"
    write_tensor(mpath, np.eye(3))
    sidecar = tmp_path / "mask.raw.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "spacing_mm": spacing}))
    return mpath


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

    @pytest.mark.parametrize("rise", [0.0, 90.0], ids=["no-ce", "all-ce"])
    def test_degenerate_masks_exit_0(self, tmp_path, rise):
        rng = np.random.default_rng(12)
        frames = np.full((5, 24, 24), 60.0) + rng.normal(0, 2.0, (5, 24, 24))
        frames[1:] += rise
        paths = {}
        for name, arr in [("seq", frames), ("content", frames[0]), ("style", frames[-1]),
                          ("generated", frames[-1] + rng.normal(0, 2.0, (24, 24)))]:
            paths[name] = tmp_path / f"{name}.raw"
            write_tensor(paths[name], arr, axis_order="TYX" if name == "seq" else None)
        out = tmp_path / "r.json"
        argv = ["metrics", "--out", str(out)]
        for name in ("generated", "content", "style", "seq"):
            argv += [f"--{name}", str(paths[name])]
        assert main(argv) == 0
        note = "no CE voxels" if rise == 0.0 else "every voxel detected as CE"
        assert any(n.startswith(note) for n in read_report(out)["entries"][0]["notes"])

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_1(self, tmp_path, phantom_spec_file, capsys, threshold):
        # unchecked, nan and inf score against an empty mask and -inf against an all-CE one
        paths = self._setup(tmp_path, phantom_spec_file[1])
        out = tmp_path / "r.json"
        argv = ["metrics", "--out", str(out), f"--threshold={threshold}"]
        for name in ("generated", "content", "style", "seq"):
            argv += [f"--{name}", str(paths[name])]
        assert main(argv) == 1
        assert "threshold must be finite" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["phantom gen", "report merge"])
@pytest.mark.parametrize("content", ['"a JSON string"', "[1, 2]", "{not json"])
def test_json_file_that_is_no_object_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "in.json"
    path.write_text(content)
    out = tmp_path / "out"
    argv = {"phantom gen": ["phantom", "gen", "--spec", str(path), "--out-dir", str(out)],
            "report merge": ["report", "merge", str(path), "--out", str(out)]}[command]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_provenance_records_every_parsed_parameter(tmp_path, phantom_spec_file):
    """Each command's provenance: its flags except outputs and seed, plus seed and version."""
    spec_file, spec = phantom_spec_file

    def prov(command, seed=None, **parameters):
        return {"command": command, "version": __version__, "seed": seed,
                "parameters": parameters}

    out_dir = _gen_phantom(tmp_path, spec_file)
    seq = str(out_dir / "sequence.raw")
    expected = prov("phantom gen", seed=11, spec_file=str(spec_file))
    assert json.loads((out_dir / "truth.json").read_text())["provenance"] == expected
    for name in ("sequence.raw", "truth_mask.raw"):
        assert read_header(out_dir / name)["provenance"] == expected

    mask = str(tmp_path / "ce.raw")
    assert main(["cemask", "--seq", seq, "--out", mask, "--baseline", "1"]) == 0
    assert read_header(mask)["provenance"] == prov(
        "cemask", seq=seq, threshold=20.0, baseline=1, signed_reverse=False)

    weights = tmp_path / "w.raw"
    assert main(["distmap", "--mask", mask, "--out", str(weights), "--invert"]) == 0
    assert read_header(weights)["provenance"] == prov(
        "distmap", mask=mask, invert=True, mode="voxel")

    paths = {k: str(v) for k, v in TestMetrics()._setup(tmp_path, spec).items()}
    report = tmp_path / "r.json"
    argv = ["metrics", "--out", str(report), "--peak", "300", "--mode", "2d"]
    for name in ("generated", "content", "style", "seq"):
        argv += [f"--{name}", paths[name]]
    assert main(argv) == 0
    assert read_report(report)["provenance"] == prov(
        "metrics", **paths, threshold=20.0, baseline=0, mode="2d", peak="300",
        direction="nce_to_ce")

    grad = tmp_path / "grad.json"
    assert main(["gradcheck", "--seed", "3", "--out", str(grad)]) == 0
    assert json.loads(grad.read_text())["provenance"] == prov("gradcheck", seed=3)


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
