"""Raw tensor files and JSON report serialization.

Tensors travel as two files: a raw little-endian float32 payload and a
JSON sidecar at ``<payload path>.json`` carrying dims, axis order, dtype
tag and optional voxel spacing.  Reports, also the CLI's phantom truth and
gradcheck files, are JSON; their canonical byte form excludes the
``generated_at`` timestamp so identical runs compare byte for byte.  Every
JSON file, sidecars included, goes through ``write_report`` and ``_read_json``.
Each input has one checker: a payload is scanned for finiteness once, by
the ``TensorND`` it becomes, an array written once, by ``as_f64``, and a
report entry is read only by ``MetricReport.from_dict``.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone

import numpy as np

from .metrics import DIRECTIONS, METRIC_FIELDS, MetricReport
from .tensor import TensorND, _is_int, as_f64, check_spacing

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
        if axis_order is None and tensor.axis_labels is not None:
            axis_order = "".join(tensor.axis_labels)
        tensor = tensor.data  # scanned again: ``.data`` may have been edited
    try:
        data = as_f64(tensor, "tensor")
    except ValueError as e:
        raise TensorFileError(f"refusing to write: {e}")
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
    write_report(_sidecar_path(path), header)  # serializes before opening either file
    with open(path, "wb") as fh:
        fh.write(payload)


def read_header(path) -> dict:
    """A tensor's sidecar, once its dims, axis order, dtype and any spacing are well formed."""
    header = _read_json(_sidecar_path(path), "sidecar")
    for key in ("dims", "axis_order", "dtype"):
        if key not in header:
            raise TensorFileError(f"sidecar missing required field {key!r}")
    if header["dtype"] != "f32":
        raise TensorFileError(f"unsupported dtype {header['dtype']!r}")
    dims, order = header["dims"], header["axis_order"]
    if not (isinstance(dims, list) and all(_is_int(n) and n >= 0 for n in dims)):
        raise TensorFileError(f"sidecar dims must be non-negative integers, got {dims!r}")
    if not (isinstance(order, str) and len(order) == len(dims)):
        raise TensorFileError(
            f"sidecar axis_order must have one letter per dim, got {order!r} for dims {dims}"
        )
    if header.get("spacing_mm") is not None:
        check_spacing(header["spacing_mm"], len(order) - order.count("T"), "spacing_mm")
    return header


def read_tensor(path) -> TensorND:
    """Read a payload/sidecar pair back into a TensorND.

    The sidecar's dims govern the expected byte count; a short or long
    payload and any NaN in the stream are rejected with exact offsets.
    Its axis order and any spacing come with the tensor, so the sidecar
    is read once.
    """
    header = read_header(path)
    dims = tuple(header["dims"])
    expected = 4 * math.prod(dims)
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
    try:  # read_header checked the labels and spacing, so only the one finiteness scan fails
        return TensorND(flat.reshape(dims), tuple(header["axis_order"]), header.get("spacing_mm"))
    except ValueError as e:
        raise TensorFileError(f"payload {path}: {e}")


# ---------------------------------------------------------------------------
# JSON files and reports


def _read_json(path, what: str) -> dict:
    """The JSON object in ``path``; anything else raises ``TensorFileError`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise TensorFileError(f"missing {what} {path}")
    except ValueError as e:  # invalid JSON or invalid UTF-8
        raise TensorFileError(f"{what} {path} is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise TensorFileError(f"{what} {path} must hold a JSON object, got {type(obj).__name__}")
    return obj


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
    """Indented JSON with sorted keys; NaN or infinity raises ``ValueError`` before ``path`` opens."""
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_report(path) -> dict:
    """A report whose entries ``MetricReport.from_dict`` reads; any other
    entry raises ``TensorFileError`` naming the file, the entry and the key."""
    report = _read_json(path, "report")
    entries = report.get("entries")
    if not isinstance(entries, list):
        raise TensorFileError(f"report {path} needs an entries list, got {entries!r}")
    for i, entry in enumerate(entries):
        try:
            MetricReport.from_dict(entry)
        except ValueError as e:
            raise TensorFileError(f"report {path} entry {i} {e}")
    return report


def merge_reports(reports: list[dict]) -> dict:
    """Pool entries (each read by ``MetricReport.from_dict``) and recompute the aggregates."""
    entries = []
    sources = []
    for rep in reports:
        entries.extend(MetricReport.from_dict(d) for d in rep["entries"])
        if rep.get("provenance"):
            sources.append(rep["provenance"])
    return make_report(entries, {"merged_from": len(reports), "sources": sources})


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
