"""Raw tensor files and JSON report serialization.

Tensors travel as two files: a raw little-endian float32 payload and a
JSON sidecar at ``<payload path>.json`` carrying dims, axis order, dtype
tag and optional voxel spacing.  Reports, also the CLI's phantom truth and
gradcheck files, are JSON; their canonical byte form excludes the
``generated_at`` timestamp so identical runs compare byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone

import numpy as np

from .metrics import DIRECTIONS, METRIC_FIELDS, MetricReport
from .tensor import TensorND, check_spacing

F32_MAX = float(np.finfo(np.float32).max)


class TensorFileError(Exception):
    """Raised for malformed or missing tensor payloads, sidecars, or reports."""


def _sidecar_path(path: str) -> str:
    return str(path) + ".json"


def _default_axis_order(ndim: int) -> str:
    defaults = {1: "X", 2: "YX", 3: "ZYX", 4: "TZYX"}
    if ndim not in defaults:
        raise TensorFileError(f"no default axis order for rank {ndim}; pass one")
    return defaults[ndim]


def write_tensor(
    path, tensor, axis_order: str | None = None, spacing_mm=None, provenance: dict | None = None
) -> None:
    """Write a float32 payload plus its JSON sidecar.

    Accepts a TensorND or any finite array.  Values beyond float32 range
    are rejected rather than silently saturated to infinity.  An optional
    ``spacing_mm`` needs one finite, positive entry per axis other than T
    and raises ``ValueError`` otherwise, before any file is opened.  An
    optional provenance dict is embedded in the sidecar verbatim.
    """
    if isinstance(tensor, TensorND):
        data = tensor.data
        if axis_order is None and tensor.axis_labels is not None:
            axis_order = "".join(tensor.axis_labels)
    else:
        data = np.asarray(tensor, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        bad = int(np.flatnonzero(~np.isfinite(data.ravel()))[0])
        raise TensorFileError(f"refusing to write non-finite value at flat offset {bad}")
    if np.abs(data).max(initial=0.0) > F32_MAX:
        raise TensorFileError("values exceed float32 range; rescale before writing")
    if axis_order is None:
        axis_order = _default_axis_order(data.ndim)
    if len(axis_order) != data.ndim:
        raise TensorFileError(
            f"axis_order {axis_order!r} has {len(axis_order)} letters for a "
            f"rank-{data.ndim} tensor"
        )
    header = {
        "dims": list(data.shape),
        "axis_order": axis_order,
        "dtype": "f32",
    }
    if spacing_mm is not None:
        n_spatial = len(axis_order) - axis_order.count("T")
        header["spacing_mm"] = list(check_spacing(spacing_mm, n_spatial, "spacing_mm"))
    if provenance is not None:
        header["provenance"] = provenance
    payload = data.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(payload)
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_header(path) -> dict:
    try:
        with open(_sidecar_path(path), "r", encoding="utf-8") as fh:
            header = json.load(fh)
    except FileNotFoundError:
        raise TensorFileError(f"missing sidecar {_sidecar_path(path)}")
    except json.JSONDecodeError as e:
        raise TensorFileError(f"sidecar {_sidecar_path(path)} is not valid JSON: {e}")
    for key in ("dims", "axis_order", "dtype"):
        if key not in header:
            raise TensorFileError(f"sidecar missing required field {key!r}")
    if header["dtype"] != "f32":
        raise TensorFileError(f"unsupported dtype {header['dtype']!r}")
    return header


def read_tensor(path) -> TensorND:
    """Read a payload/sidecar pair back into a TensorND.

    The sidecar's dims govern the expected byte count; a short or long
    payload and any NaN in the stream are rejected with exact offsets.
    """
    header = read_header(path)
    dims = tuple(int(d) for d in header["dims"])
    expected = 4 * int(np.prod(dims)) if dims else 4
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except FileNotFoundError:
        raise TensorFileError(f"missing payload {path}")
    if len(payload) != expected:
        raise TensorFileError(
            f"payload size mismatch: dims {list(dims)} require {expected} bytes, "
            f"file has {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise TensorFileError(f"payload contains a non-finite value at flat offset {int(bad[0])}")
    labels = tuple(header["axis_order"])
    return TensorND.from_flat(flat, dims, axis_labels=labels)


# ---------------------------------------------------------------------------
# reports


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def aggregate(entries: list[MetricReport]) -> dict:
    """Per-direction mean/std (n-1 denominator) of every metric field.

    Infinite PSNR values are excluded from the moments and surface as an
    ``n_infinite`` count instead.
    """
    out: dict = {}
    for direction in DIRECTIONS:
        subset = [e for e in entries if e.direction == direction]
        if not subset:
            continue
        stats: dict = {}
        for fieldname in METRIC_FIELDS:
            values = [getattr(e, fieldname) for e in subset]
            finite = [v for v in values if math.isfinite(v)]
            entry = {
                "mean": float(np.mean(finite)) if finite else None,
                "std": float(np.std(finite, ddof=1)) if len(finite) > 1 else None,
                "n": len(finite),
            }
            if fieldname == "psnr_style_vs_gen":
                entry["n_infinite"] = len(values) - len(finite)
            stats[fieldname] = entry
        stats["n_entries"] = len(subset)
        out[direction] = stats
    return out


def make_report(entries: list[MetricReport], provenance: dict | None = None) -> dict:
    return {
        "entries": [e.to_dict() for e in entries],
        "aggregates": aggregate(entries),
        "provenance": provenance or {},
        "generated_at": _timestamp(),
    }


def canonical_bytes(report: dict) -> bytes:
    """Deterministic byte form: sorted keys, no timestamp, compact separators."""
    stripped = {k: v for k, v in report.items() if k != "generated_at"}
    return json.dumps(
        stripped, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_report(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except FileNotFoundError:
        raise TensorFileError(f"missing report {path}")
    except json.JSONDecodeError as e:
        raise TensorFileError(f"report {path} is not valid JSON: {e}")
    if "entries" not in report:
        raise TensorFileError(f"report {path} has no entries field")
    return report


def merge_reports(reports: list[dict]) -> dict:
    """Pool entries from several reports and recompute the aggregates."""
    entries = []
    sources = []
    for rep in reports:
        entries.extend(MetricReport.from_dict(d) for d in rep["entries"])
        if rep.get("provenance"):
            sources.append(rep["provenance"])
    return {
        "entries": [e.to_dict() for e in entries],
        "aggregates": aggregate(entries),
        "provenance": {"merged_from": len(reports), "sources": sources},
        "generated_at": _timestamp(),
    }


def export_csv(report: dict, path) -> None:
    """One flattened row per entry; notes joined with ';'."""
    fields = ["direction", *METRIC_FIELDS, "psnr_infinite", "notes"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for d in report["entries"]:
            row = {k: d.get(k) for k in fields if k != "notes"}
            row["psnr_infinite"] = d.get("psnr_infinite", False)
            row["notes"] = ";".join(d.get("notes", []))
            writer.writerow(row)
