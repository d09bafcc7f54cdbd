import json
import math
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dcemetrics.io import (
    TensorFileError,
    aggregate,
    canonical_bytes,
    export_csv,
    make_report,
    merge_reports,
    read_header,
    read_report,
    read_tensor,
    write_report,
    write_tensor,
)
from dcemetrics.metrics import MetricReport
from dcemetrics.tensor import TensorND
from oracles import spreadsheet_mean_std


class TestTensorRoundTrip:
    def test_round_trip_within_f32(self, tmp_path):
        rng = np.random.default_rng(0)
        t = TensorND(rng.normal(0, 100, size=(3, 5, 7)), axis_labels=("Z", "Y", "X"))
        p = tmp_path / "vol.raw"
        write_tensor(p, t)
        back = read_tensor(p)
        npt.assert_allclose(back.data, t.data, rtol=1e-7)
        assert back.axis_labels == ("Z", "Y", "X")

    def test_exact_for_f32_representable(self, tmp_path):
        t = np.arange(24, dtype=np.float64).reshape(4, 6)
        p = tmp_path / "ints.raw"
        write_tensor(p, t)
        npt.assert_array_equal(read_tensor(p).data, t)

    @settings(derandomize=True, deadline=None)
    @given(a=arrays(np.float32, array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5),
                    elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    def test_property_exact_for_f32_representable(self, a, tmp_path_factory):
        t = a.astype(np.float64)
        p = tmp_path_factory.mktemp("prop") / "t.raw"
        write_tensor(p, t)
        back = read_tensor(p).data
        assert back.dtype == np.float64 and back.shape == t.shape
        # bit for bit, so -0.0 and subnormals count too
        npt.assert_array_equal(back.view(np.uint64), t.view(np.uint64))

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_sidecar_round_trip(self, tmp_path_factory, data):
        dims = data.draw(array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4))
        axis_order = data.draw(st.text("TZYXC", min_size=len(dims), max_size=len(dims)))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        n_spatial = len(dims) - axis_order.count("T")
        spacing = data.draw(st.none() | st.lists(positive, min_size=n_spatial,
                                                 max_size=n_spatial))
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | finite | st.text(),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(), inner, max_size=3),
            max_leaves=8,
        )
        provenance = data.draw(st.none() | st.dictionaries(st.text(), json_values, max_size=4))
        p = tmp_path_factory.mktemp("sidecar") / "t.raw"
        write_tensor(p, np.zeros(dims), axis_order=axis_order, spacing_mm=spacing,
                     provenance=provenance)
        header = read_header(p)
        assert header["dims"] == list(dims)
        assert header["axis_order"] == axis_order
        assert header.get("spacing_mm") == spacing
        assert header.get("provenance") == provenance
        assert read_tensor(p).axis_labels == tuple(axis_order)

    def test_sidecar_contents(self, tmp_path):
        p = tmp_path / "seq.raw"
        write_tensor(p, np.zeros((2, 3, 4, 5)), spacing_mm=(3.5, 1.12, 1.12))
        header = json.loads((tmp_path / "seq.raw.json").read_text())
        assert header == {
            "axis_order": "TZYX",
            "dims": [2, 3, 4, 5],
            "dtype": "f32",
            "spacing_mm": [3.5, 1.12, 1.12],
        }
        assert read_header(p)["dims"] == [2, 3, 4, 5]

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        p = tmp_path / "short.raw"
        write_tensor(p, np.ones((4, 4)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(TensorFileError, match=r"64 bytes.*56"):
            read_tensor(p)

    def test_nan_payload_reports_offset(self, tmp_path):
        p = tmp_path / "nan.raw"
        write_tensor(p, np.zeros(6))
        raw = bytearray(p.read_bytes())
        raw[12:16] = struct.pack("<f", float("nan"))  # fourth value, offset 3
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFileError, match="offset 3"):
            read_tensor(p)

    def test_missing_sidecar(self, tmp_path):
        p = tmp_path / "naked.raw"
        p.write_bytes(b"\x00" * 16)
        with pytest.raises(TensorFileError, match="sidecar"):
            read_tensor(p)

    def test_f32_overflow_rejected(self, tmp_path):
        with pytest.raises(TensorFileError, match="float32"):
            write_tensor(tmp_path / "big.raw", np.array([1e39]))

    def test_non_finite_write_rejected(self, tmp_path):
        with pytest.raises(TensorFileError, match="offset 1"):
            write_tensor(tmp_path / "inf.raw", np.array([0.0, np.inf]))

    def test_axis_order_length_checked(self, tmp_path):
        with pytest.raises(TensorFileError, match="axis_order"):
            write_tensor(tmp_path / "bad.raw", np.zeros((2, 2)), axis_order="ZYX")

    @pytest.mark.parametrize("order, spacing, match", [
        ("YX", (math.nan, 0.0), "finite and positive"),
        ("YX", (1.0, 0.0), "finite and positive"),
        ("YX", (-1.0, 1.0), "finite and positive"),
        ("YX", (1.0, math.inf), "finite and positive"),
        ("TYX", (1.0,), "1 entries for 2 spatial axes"),
        ("TYX", (1.0, 1.0, 1.0), "3 entries for 2 spatial axes"),
    ])
    def test_bad_spacing_rejected_before_any_file(self, tmp_path, order, spacing, match):
        p = tmp_path / "bad.raw"
        with pytest.raises(ValueError, match=match):
            write_tensor(p, np.zeros((2,) * len(order)), axis_order=order, spacing_mm=spacing)
        assert list(tmp_path.iterdir()) == []


def _entry(seed, direction="nce_to_ce", psnr=None):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.2, 0.99, size=4)
    return MetricReport(
        psnr_style_vs_gen=float(rng.uniform(20, 40)) if psnr is None else psnr,
        ssim_content_vs_gen=float(vals[0]),
        ms_ssim_content_vs_gen=float(vals[1]),
        cw_ssim_content=float(vals[2]),
        cw_ssim_style=float(vals[3]),
        direction=direction,
    )


GOLDEN_REPORT_BYTES = (
    b'{"aggregates":{"ce_to_nce":{"cw_ssim_content":{"mean":1.0,"n":1,"std":null},'
    b'"cw_ssim_style":{"mean":1.0,"n":1,"std":null},'
    b'"ms_ssim_content_vs_gen":{"mean":1.0,"n":1,"std":null},"n_entries":1,'
    b'"psnr_style_vs_gen":{"mean":null,"n":0,"n_infinite":1,"std":null},'
    b'"ssim_content_vs_gen":{"mean":1.0,"n":1,"std":null}},'
    b'"nce_to_ce":{"cw_ssim_content":{"mean":0.75,"n":1,"std":null},'
    b'"cw_ssim_style":{"mean":0.625,"n":1,"std":null},'
    b'"ms_ssim_content_vs_gen":{"mean":0.8125,"n":1,"std":null},"n_entries":1,'
    b'"psnr_style_vs_gen":{"mean":31.25,"n":1,"n_infinite":0,"std":null},'
    b'"ssim_content_vs_gen":{"mean":0.875,"n":1,"std":null}}},'
    b'"entries":[{"cw_ssim_content":0.75,"cw_ssim_style":0.625,"direction":"nce_to_ce",'
    b'"ms_ssim_content_vs_gen":0.8125,"notes":["ms_ssim used 3 of 5 scales"],'
    b'"psnr_infinite":false,"psnr_style_vs_gen":31.25,"ssim_content_vs_gen":0.875},'
    b'{"cw_ssim_content":1.0,"cw_ssim_style":1.0,"direction":"ce_to_nce",'
    b'"ms_ssim_content_vs_gen":1.0,"notes":[],"psnr_infinite":true,'
    b'"psnr_style_vs_gen":null,"ssim_content_vs_gen":1.0}],"provenance":{}}'
)


class TestAggregation:
    def test_matches_spreadsheet_recomputation(self):
        entries = [_entry(i) for i in range(7)]
        agg = aggregate(entries)["nce_to_ce"]
        for name in (
            "psnr_style_vs_gen",
            "ssim_content_vs_gen",
            "cw_ssim_content",
            "cw_ssim_style",
        ):
            mean, std = spreadsheet_mean_std([getattr(e, name) for e in entries])
            assert agg[name]["mean"] == pytest.approx(mean, rel=1e-12)
            assert agg[name]["std"] == pytest.approx(std, rel=1e-12)
            assert agg[name]["n"] == 7

    def test_entry_counts_per_direction(self):
        entries = [_entry(i) for i in range(4)] + [
            _entry(10 + i, direction="ce_to_nce") for i in range(3)
        ]
        agg = aggregate(entries)
        assert agg["nce_to_ce"]["n_entries"] == 4
        assert agg["ce_to_nce"]["n_entries"] == 3
        assert sum(a["n_entries"] for a in agg.values()) == len(entries)

    def test_infinite_psnr_skipped_and_counted(self):
        entries = [_entry(0), _entry(1, psnr=math.inf), _entry(2)]
        agg = aggregate(entries)["nce_to_ce"]
        finite = [entries[0].psnr_style_vs_gen, entries[2].psnr_style_vs_gen]
        mean, std = spreadsheet_mean_std(finite)
        assert agg["psnr_style_vs_gen"]["mean"] == pytest.approx(mean)
        assert agg["psnr_style_vs_gen"]["n"] == 2
        assert agg["psnr_style_vs_gen"]["n_infinite"] == 1
        # other metrics keep all three entries
        assert agg["ssim_content_vs_gen"]["n"] == 3

    def test_single_entry_has_null_std(self):
        agg = aggregate([_entry(0)])["nce_to_ce"]
        assert agg["ssim_content_vs_gen"]["std"] is None


class TestReports:
    def test_round_trip(self, tmp_path):
        report = make_report([_entry(i) for i in range(3)], {"seed": 1})
        p = tmp_path / "report.json"
        write_report(p, report)
        back = read_report(p)
        assert back == report

    def test_canonical_bytes_exclude_timestamp(self):
        entries = [_entry(i) for i in range(2)]
        a = make_report(entries, {"seed": 5})
        b = make_report(entries, {"seed": 5})
        b["generated_at"] = "2001-01-01T00:00:00+00:00"
        assert a["generated_at"] != b["generated_at"]
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_canonical_bytes_golden(self):
        # frozen bytes: pins MetricReport.to_dict/from_dict and the
        # aggregates, including the infinite-PSNR encoding
        finite = MetricReport(
            31.25, 0.875, 0.8125, 0.75, 0.625, notes=["ms_ssim used 3 of 5 scales"]
        )
        infinite = MetricReport(math.inf, 1.0, 1.0, 1.0, 1.0, direction="ce_to_nce")
        assert canonical_bytes(make_report([finite, infinite], {})) == GOLDEN_REPORT_BYTES
        for e in (finite, infinite):
            assert MetricReport.from_dict(e.to_dict()) == e

    def test_canonical_bytes_sensitive_to_content(self):
        a = make_report([_entry(0)], {})
        b = make_report([_entry(1)], {})
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_merge_five_single_entry_reports(self):
        singles = [make_report([_entry(i)], {"run": i}) for i in range(5)]
        merged = merge_reports(singles)
        assert len(merged["entries"]) == 5
        agg = merged["aggregates"]["nce_to_ce"]
        values = [_entry(i).ssim_content_vs_gen for i in range(5)]
        mean, std = spreadsheet_mean_std(values)
        assert agg["ssim_content_vs_gen"]["mean"] == pytest.approx(mean, rel=1e-12)
        assert agg["ssim_content_vs_gen"]["std"] == pytest.approx(std, rel=1e-12)
        assert merged["provenance"]["merged_from"] == 5
        assert len(merged["provenance"]["sources"]) == 5

    def test_merge_preserves_infinite_psnr(self):
        rep = make_report([_entry(0, psnr=math.inf)], {})
        merged = merge_reports([rep])
        assert merged["entries"][0]["psnr_infinite"] is True
        assert merged["entries"][0]["psnr_style_vs_gen"] is None

    def test_csv_export(self, tmp_path):
        report = make_report([_entry(0), _entry(1, psnr=math.inf)], {})
        p = tmp_path / "out.csv"
        export_csv(report, p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("direction,psnr_style_vs_gen")
        assert ",True," in lines[2] or lines[2].endswith("True,")

    def test_non_finite_report_raises_before_any_file(self, tmp_path):
        # serializing while writing would leave a truncated file behind
        p = tmp_path / "r.json"
        report = make_report([_entry(0)], {"threshold": math.nan})
        with pytest.raises(ValueError, match="JSON"):
            write_report(p, report)
        assert not p.exists()
        t = tmp_path / "t.raw"
        with pytest.raises(ValueError, match="JSON"):
            write_tensor(t, np.zeros((2, 2)), provenance={"threshold": math.nan})
        assert not t.exists() and not (tmp_path / "t.raw.json").exists()

    @pytest.mark.parametrize("content", ['"entries"', '["entries"]', "{", "\xff"])
    def test_read_report_needs_a_json_object(self, tmp_path, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content.encode("latin-1"))
        with pytest.raises(TensorFileError, match="JSON"):
            read_report(p)

    def test_read_report_requires_entries(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        with pytest.raises(TensorFileError, match="entries"):
            read_report(p)
