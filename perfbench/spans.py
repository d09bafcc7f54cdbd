"""Outside-in span tracing for the benchmark.

The tracer wraps public functions of ``dcemetrics`` by replacing the module
attributes that callers look up at run time.  Nothing inside the package is
edited: each patch point below is a name that another module reads as a
global (or a class attribute), so the wrapper sees every call.

A span is ``[name, start, end, parent, op, fact, peak_bytes]``:
start/end are ``perf_counter`` seconds, ``parent`` the index of the
enclosing span (-1 at the top), ``op`` the id of the operation (or
``"setup"``), ``fact`` an optional number taken from the call (bytes moved,
CE voxels, MS-SSIM scales) and ``peak_bytes`` the tracemalloc peak above the
allocation level at entry.  Spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = "setup"
        # per open span: [span index, traced bytes at entry, peak seen so far]
        self._stack: list[list] = []

    def _enter(self, name: str) -> None:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        current = 0
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        self._stack.append([idx, current, current])
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None, 0])

    def _exit(self, end: float, fact) -> None:
        idx, at_entry, seen = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        span[5] = fact
        if tracemalloc.is_tracing():
            peak = max(seen, tracemalloc.get_traced_memory()[1])
            span[6] = max(0, peak - at_entry)
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)

    def wrap(self, owner, attr: str, name: str, fact=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call.

        ``fact(args, kwargs, result)`` may return a number stored on the span.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(time.perf_counter(), None)
                raise
            end = time.perf_counter()
            tracer._exit(end, fact(args, kwargs, result) if fact else None)
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh, separators=(",", ":"))


def _f32_bytes(array) -> int:
    from dcemetrics.tensor import TensorND

    return 4 * int((array.data if isinstance(array, TensorND) else array).size)


def _ce_voxels(args, kwargs, result) -> int:
    return int(result.mask.sum())


def _scales_used(args, kwargs, result) -> int:
    from dcemetrics.metrics import MSSSIMParams, ms_ssim_scale_count

    params = (args[2] if len(args) > 2 else kwargs.get("params")) or MSSSIMParams()
    shape = args[0].shape
    if params.per_slice and len(shape) == 3:
        shape = shape[1:]
    return ms_ssim_scale_count(shape, params)


def install(tracer: Tracer) -> None:
    """Install every patch point; call after ``import dcemetrics.cli``."""
    import dcemetrics.cli as cli
    import dcemetrics.kernels as kernels
    import dcemetrics.metrics as metrics
    import dcemetrics.phantom as phantom

    # metrics looks these up as module globals
    tracer.wrap(metrics, "windowed_moments", "tensor.windowed_moments")
    tracer.wrap(metrics, "distance_transform", "metrics.distance_transform")
    for fn in ("ssim", "cw_ssim", "psnr"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")
    tracer.wrap(metrics, "ms_ssim", "metrics.ms_ssim", _scales_used)
    tracer.wrap(metrics, "evaluate_triple", "metrics.evaluate_triple")
    tracer.wrap(cli, "evaluate_triple", "metrics.evaluate_triple")
    for owner in (metrics, cli):
        tracer.wrap(owner, "detect_ce", "metrics.detect_ce", _ce_voxels)

    # make_triple calls generate as a global; the CLI imported it by name
    tracer.wrap(phantom, "generate", "phantom.generate")
    tracer.wrap(cli, "generate", "phantom.generate")
    tracer.wrap(phantom, "make_triple", "phantom.make_triple")

    # the CLI imported its io functions by name
    tracer.wrap(cli, "read_tensor", "io.read_tensor", lambda a, k, r: _f32_bytes(r))
    tracer.wrap(cli, "write_tensor", "io.write_tensor", lambda a, k, r: _f32_bytes(a[1]))
    for fn in ("write_report", "read_report", "merge_reports", "canonical_bytes"):
        tracer.wrap(cli, fn, f"io.{fn}")
    tracer.wrap(cli, "main", "cli.main")

    tracer.wrap(kernels, "conv", "tensor.conv")
    tracer.wrap(kernels.FixedFeatureExtractor, "features", "kernels.features")
    tracer.wrap(kernels, "grad_check", "kernels.grad_check")
    tracer.wrap(kernels, "convlstm_cell", "kernels.convlstm_cell")


def summarize(spans: list[list], ops, out: dict) -> dict:
    """Add per span name self seconds, calls, summed facts and the largest peak.

    Only spans whose op id is in ``ops`` count.  Self time is a span's
    duration minus the durations of its direct children.
    """
    ops = set(ops)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    for i, (name, start, end, _parent, op, fact, peak) in enumerate(spans):
        if op not in ops:
            continue
        row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "fact": 0.0, "peak_bytes": 0})
        row["self_s"] += (end - start) - child_time[i]
        row["calls"] += 1
        row["fact"] += fact or 0
        row["peak_bytes"] = max(row["peak_bytes"], peak)
    return out
