"""Workload inputs, operations and output checks.

Each workload renders its inputs from the seed in ``setup`` (set-up, not
timed), runs one operation per ``op`` call (timed by the caller), reduces an
output to a small ``summary`` outside the timed region, and ``check``s that
summary (given the summaries of all ops so far, ``None`` for an op that
raised) against the recorded reference for the seed, or against invariants
when the seed has none.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import dcemetrics.metrics as metrics
import dcemetrics.phantom as phantom
from dcemetrics.io import write_tensor
from dcemetrics.kernels import ConvLSTMWeights, bidirectional_convlstm, run_grad_checks

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

RADII = (0.16, 0.14, 0.12)
# Enhancing regions per phantom.  The same in every triple: the EDT's cost
# grows with the enhancing footprint, and a pool mixing one and two made op
# latencies bimodal, which left their median jumping between the two modes.
ENHANCING = 2
SCORE_TOL = 1e-9  # acceptance criterion 03
GRAD_TOL = 1e-4  # acceptance criterion 06
CONVLSTM_TOL = 1e-12  # acceptance criterion 08
SCORE_FIELDS = (
    "psnr_style_vs_gen",
    "ssim_content_vs_gen",
    "ms_ssim_content_vs_gen",
    "cw_ssim_content",
    "cw_ssim_style",
)
# Rough resident size of an interpreter with numpy and scipy imported.
BASE_BYTES = 100 * 2**20

# A forked child's peak RSS starts at its parent's resident size, so CLI
# commands are started by this small helper rather than by the benchmark
# process; each request line is [argv, log path], each reply [exit code, KiB].
SPAWNER = """
import json, os, subprocess, sys
for line in sys.stdin:
    argv, log = json.loads(line)
    with open(log, "wb") as fh:
        child = subprocess.Popen(argv, stdout=fh, stderr=fh)
        _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([child.returncode, usage.ru_maxrss]), flush=True)
"""


def load_references(workload: str, seed: int):
    if not REFERENCES.is_file():
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def make_spec(grid, seed: int, rng) -> phantom.PhantomSpec:
    """Three ellipsoidal regions, ``ENHANCING`` of them enhancing, six frames.

    Radii are fixed fractions of the grid, and the regions sit side by side
    along the last axis with random gaps, so their projections across the
    other axes never overlap: the EDT's first passes, which skip lines no
    region reaches, do the same work for every triple.  Gaps, the other
    coordinates, intensities and noise come from ``rng``.
    """
    widths = [2 * fraction * grid[-1] for fraction in RADII]
    gaps = rng.uniform(size=len(RADII) + 1)  # before each region and after the last
    gaps *= (grid[-1] - 1 - sum(widths)) / gaps.sum()
    edge = 0.0
    regions = []
    for i, fraction in enumerate(RADII):
        radii = [fraction * n for n in grid]
        center = [float(rng.uniform(r, n - 1 - r)) for r, n in zip(radii[:-1], grid[:-1])]
        edge += gaps[i]
        center.append(float(edge + radii[-1]))
        edge += widths[i]
        regions.append(
            phantom.Region(
                center,
                radii,
                baseline=float(rng.uniform(60.0, 120.0)),
                amplitude=float(rng.uniform(80.0, 140.0)) if i < ENHANCING else 0.0,
                onset=float(rng.uniform(0.0, 1.0)),
            )
        )
    return phantom.PhantomSpec(
        tuple(grid), tuple(regions), n_frames=6, noise_sigma=2.0, seed=seed, background=30.0
    )


def make_specs(name: str, grid, seed: int, count: int) -> list[phantom.PhantomSpec]:
    rng = np.random.default_rng([seed, sum(name.encode())])
    return [make_spec(grid, seed * 1000 + k, rng) for k in range(count)]


def valid_window(shape, size: int = 11) -> tuple[int, tuple[int, ...]]:
    """Valid window positions and per-axis taps of the default SSIM window."""
    taps = tuple(min(size, n) - (1 - min(size, n) % 2) for n in shape)
    return math.prod(n - t + 1 for n, t in zip(shape, taps)), taps


def score_invariants(scores, scales_used: int) -> str | None:
    if not all(math.isfinite(v) for v in scores):
        return "non-finite score"
    if not all(-1.0 <= v <= 1.0 for v in scores[1:]):
        return "SSIM-family score outside [-1, 1]"
    if scales_used == 1 and abs(scores[2] - scores[1]) > SCORE_TOL:
        return "ms_ssim differs from ssim with one scale"
    return None


def compare(values, reference, tol: float) -> str | None:
    worst = max(abs(a - b) for a, b in zip(values, reference))
    if len(values) != len(reference) or not worst <= tol:
        return f"differs from reference by {worst:.3e} (tol {tol:g})"
    return None


class ScoreWorkload:
    """``evaluate_triple`` on a pool of rendered triples; op = one triple."""

    def __init__(self, name: str, grid, pool: int, params: metrics.EvalParams):
        self.name, self.grid, self.pool, self.params = name, grid, pool, params

    def estimate_bytes(self) -> int:
        n_valid, taps = valid_window(self.grid)
        voxels = math.prod(self.grid)
        # one moment map materializes valid positions x window taps at a time;
        # each pooled triple holds six frames and three images
        return BASE_BYTES + n_valid * math.prod(taps) * 8 + self.pool * 9 * voxels * 8

    def setup(self, seed: int) -> None:
        self.inputs = []
        for spec in make_specs(self.name, self.grid, seed, self.pool):
            sequence = phantom.generate(spec).sequence
            content, style, generated = phantom.make_triple(spec, 0, 5)
            self.inputs.append((generated, content, style, sequence))
        self.scales_used = metrics.ms_ssim_scale_count(self.grid, self.params.ms_ssim)
        self.references = load_references(self.name, seed)

    def op(self, i: int):
        return metrics.evaluate_triple(*self.inputs[i % self.pool], self.params)

    def summary(self, i: int, report):
        return [getattr(report, f) for f in SCORE_FIELDS]

    def check(self, i: int, scores, summaries) -> str | None:
        if self.references is not None:
            return compare(scores, self.references[i % self.pool], SCORE_TOL)
        if i >= self.pool and summaries[i % self.pool] is not None:
            return compare(scores, summaries[i % self.pool], 0.0)
        return score_invariants(scores, self.scales_used)

    def teardown(self) -> None:
        pass


class KernelsWorkload:
    """Gradient checks plus one bidirectional ConvLSTM; op = one of each."""

    name = "kernels"
    frames_shape = (4, 64, 64)
    hidden = 8
    samples = 32

    def estimate_bytes(self) -> int:
        c, h, w = self.frames_shape
        # conv materializes positions x (in channels x 3x3 taps)
        return BASE_BYTES + h * w * (c + self.hidden) * 9 * 8

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.frames = [rng.normal(0.0, 1.0, size=self.frames_shape) for _ in range(5)]
        c = self.frames_shape[0]
        self.fw = ConvLSTMWeights.from_seed(seed, c, self.hidden)
        self.bw = ConvLSTMWeights.from_seed(seed + 1, c, self.hidden)
        n_out = 5 * 2 * self.hidden * math.prod(self.frames_shape[1:])
        self.sample_at = np.random.default_rng(0).choice(n_out, self.samples, replace=False)
        self.references = load_references(self.name, seed)

    def op(self, i: int):
        return run_grad_checks(self.seed), bidirectional_convlstm(self.frames, self.fw, self.bw)

    def summary(self, i: int, output):
        reports, outs = output
        flat = np.concatenate([o.ravel() for o in outs])
        return {
            "grad": [[r.ok, r.max_rel_error] for r in reports],
            "convlstm": [float(o.sum()) for o in outs] + flat[self.sample_at].tolist(),
            "finite_unit": bool(np.all(np.abs(flat) < 1.0)),
        }

    def check(self, i: int, out, summaries) -> str | None:
        for ok, err in out["grad"]:
            if not (ok and err <= GRAD_TOL):
                return f"grad check ok={ok} max_rel_error={err:.3e} (tol {GRAD_TOL:g})"
        if not out["finite_unit"]:
            return "ConvLSTM output not finite within (-1, 1)"
        if self.references is not None:
            return compare(out["convlstm"], self.references["convlstm"], CONVLSTM_TOL)
        earlier = next(s for s in summaries if s is not None)
        return compare(out["convlstm"], earlier["convlstm"], CONVLSTM_TOL)

    def teardown(self) -> None:
        pass


class CliWorkload:
    """The README walkthrough as fresh ``python -m dcemetrics`` processes.

    One pass runs six commands on one phantom; op = one command.  Passes
    rotate through the pool, so the phantom seed changes every pass.
    """

    name = "cli-pipeline"
    grid = (48, 48)
    pool = 6
    per_pass = 6

    def __init__(self, root: Path):
        self.root = root

    def estimate_bytes(self) -> int:
        n_valid, taps = valid_window(self.grid)
        return BASE_BYTES + n_valid * math.prod(taps) * 8

    def setup(self, seed: int) -> None:
        self.work = self.root / "perfbench" / "out" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        for k, spec in enumerate(make_specs(self.name, self.grid, seed, self.pool)):
            d = self.work / str(k)
            d.mkdir(exist_ok=True)
            with open(d / "spec.json", "w", encoding="utf-8") as fh:
                json.dump(spec.to_dict(), fh)
            content, style, generated = phantom.make_triple(spec, 0, 5)
            for label, image in (("content", content), ("style", style), ("generated", generated)):
                write_tensor(d / f"{label}.raw", image)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.spawner = subprocess.Popen([sys.executable, "-S", "-c", SPAWNER], env=env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.references = load_references(self.name, seed)

    def commands(self, k: int) -> list[list[str]]:
        d = self.work / str(k)
        return [
            ["phantom", "gen", "--spec", f"{d}/spec.json", "--out-dir", str(d)],
            ["cemask", "--seq", f"{d}/sequence.raw", "--out", f"{d}/ce.raw"],
            ["distmap", "--mask", f"{d}/ce.raw", "--out", f"{d}/w_content.raw"],
            ["distmap", "--mask", f"{d}/ce.raw", "--out", f"{d}/w_style.raw", "--invert"],
            ["metrics", "--generated", f"{d}/generated.raw", "--content", f"{d}/content.raw",
             "--style", f"{d}/style.raw", "--seq", f"{d}/sequence.raw", "--out", f"{d}/report.json"],
            ["report", "merge", f"{d}/report.json", "--out", f"{d}/merged.json",
             "--csv", f"{d}/scores.csv"],
        ]

    def run(self, argv: list[str]) -> tuple[int, float]:
        """Run one child to completion; returns (exit code, peak RSS in MB)."""
        self.spawner.stdin.write(json.dumps([argv, str(self.work / "last.log")]) + "\n")
        self.spawner.stdin.flush()
        code, rss_kib = json.loads(self.spawner.stdout.readline())
        return code, rss_kib / 1024.0

    def op(self, i: int, launcher=None):
        """Command i % 6 of pass i // 6; ``launcher`` prefixes a traced run."""
        argv = self.commands((i // self.per_pass) % self.pool)[i % self.per_pass]
        prefix = launcher or [sys.executable, "-m", "dcemetrics"]
        return self.run(prefix + argv)

    def summary(self, i: int, output):
        code, rss_mb = output
        out = {"code": code, "rss_mb": rss_mb}
        if code == 0:
            d = self.work / str((i // self.per_pass) % self.pool)
            step = i % self.per_pass
            if step == 4:
                with open(d / "report.json", encoding="utf-8") as fh:
                    entry = json.load(fh)["entries"][0]
                out["scores"] = [entry[f] for f in SCORE_FIELDS]
            elif step == 5:
                with open(d / "merged.json", encoding="utf-8") as fh:
                    out["merged_entries"] = len(json.load(fh)["entries"])
        return out

    def check(self, i: int, out, summaries) -> str | None:
        if out["code"] != 0:
            return f"exit code {out['code']}"
        if "scores" in out:
            if self.references is not None:
                k = (i // self.per_pass) % self.pool
                return compare(out["scores"], self.references[k], SCORE_TOL)
            return score_invariants(out["scores"], metrics.ms_ssim_scale_count(self.grid))
        if out.get("merged_entries", 1) != 1:
            return f"merged report has {out['merged_entries']} entries, expected 1"
        return None

    def teardown(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)
        self.spawner.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


def make_workloads(root: Path) -> dict:
    return {
        w.name: w
        for w in (
            ScoreWorkload("score-2d", (256, 256), 16, metrics.EvalParams()),
            ScoreWorkload("score-3d", (16, 48, 48), 10, metrics.EvalParams(slice_mode="3d")),
            CliWorkload(root),
            KernelsWorkload(),
        )
    }
