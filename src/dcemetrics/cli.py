"""Command-line surface tying the modules into reproducible runs.

Subcommands: ``phantom gen``, ``cemask``, ``distmap``, ``metrics``,
``gradcheck`` and ``report merge``.  Exit codes: 0 on success, 1 on
validation problems (bad flags or values), 2 on I/O problems (missing or
malformed files).  Every output carries a provenance block with the
command, its parameters, the seed where one applies, and the package
version, so a result file always says how it was produced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .io import (
    TensorFileError,
    _read_json,
    _timestamp,
    canonical_bytes,
    export_csv,
    make_report,
    merge_reports,
    read_report,
    read_tensor,
    write_report,
    write_tensor,
)
from .kernels import GRAD_CHECK_TOL, run_grad_checks
from .metrics import (
    DIRECTIONS,
    METRIC_FIELDS,
    EvalParams,
    detect_ce,
    distance_map,
    evaluate_triple,
    invert_map,
)
from .phantom import PhantomSpec, generate
from .tensor import VolumeSequence


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: parsed flags that name no parameter: the command itself, its outputs, the seed
_NOT_PARAMETERS = {"command", "subcommand", "func", "out", "out_dir", "seed"}


def _provenance(args, seed=None) -> dict:
    """The command, every parsed flag but outputs and seed, the seed and the version."""
    return {
        "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
        "version": __version__,
        "seed": seed,
        "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
    }


def _load_sequence(path) -> VolumeSequence:
    t = read_tensor(path)
    if t.data.ndim not in (3, 4):
        raise ValueError(
            f"sequence tensor must be (T, Y, X) or (T, Z, Y, X), got rank {t.data.ndim}"
        )
    return VolumeSequence(t, spacing_mm=t.spacing_mm)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_phantom_gen(args) -> int:
    spec = PhantomSpec.from_dict(_read_json(args.spec_file, "spec"))
    out = generate(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    prov = _provenance(args, seed=spec.seed)
    order = "TZYX" if len(spec.grid) == 3 else "TYX"
    write_tensor(
        out_dir / "sequence.raw",
        out.sequence.frames,
        axis_order=order,
        spacing_mm=spec.spacing_mm,
        provenance=prov,
    )
    write_tensor(
        out_dir / "truth_mask.raw",
        out.truth_mask.mask.astype(np.float64),
        axis_order=order[1:],
        spacing_mm=spec.spacing_mm,
        provenance=prov,
    )
    write_report(
        out_dir / "truth.json",
        {
            "spec": spec.to_dict(),
            "truth_curves": out.truth_curves.tolist(),
            "provenance": prov,
            "generated_at": _timestamp(),
        },
    )
    print(f"wrote sequence.raw, truth_mask.raw, truth.json to {out_dir}")
    return 0


def _cmd_cemask(args) -> int:
    seq = _load_sequence(args.seq)
    ce = detect_ce(
        seq,
        baseline_index=args.baseline,
        threshold=args.threshold,
        signed_reverse=args.signed_reverse,
    )
    write_tensor(
        args.out,
        ce.mask.astype(np.float64),
        spacing_mm=seq.spacing_mm,
        provenance=_provenance(args),
    )
    print(f"wrote {args.out} ({int(ce.mask.sum())} enhancing voxels)")
    return 0


def _cmd_distmap(args) -> int:
    mask = read_tensor(args.mask)
    dm = distance_map(mask.data > 0.5, spacing=mask.spacing_mm, mode=args.mode)
    if args.invert:
        dm = invert_map(dm)
    write_tensor(args.out, dm.weights, spacing_mm=mask.spacing_mm,
                 provenance=_provenance(args))
    print(f"wrote {args.out} (inverted={dm.inverted})")
    return 0


def _cmd_metrics(args) -> int:
    if args.peak == "auto":
        peak = None
    else:
        try:
            peak = float(args.peak)
        except ValueError:
            raise ValueError(f"--peak must be 'auto' or a number, got {args.peak!r}")

    triple = [read_tensor(path) for path in (args.generated, args.content, args.style)]
    seq = _load_sequence(args.seq)

    params = EvalParams(
        threshold=args.threshold,
        baseline_index=args.baseline,
        slice_mode=args.mode,
        peak=peak,
        direction=args.direction,
    )
    entry = evaluate_triple(*triple, seq, params)
    write_report(args.out, make_report([entry], _provenance(args)))
    for name in METRIC_FIELDS:
        print(f"{name}: {getattr(entry, name)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_grad_checks(args.seed)
    payload = {
        "checks": [r.to_dict() for r in reports],
        "provenance": _provenance(args, seed=args.seed),
        "generated_at": _timestamp(),
    }
    if args.out:
        write_report(args.out, payload)
    for r in reports:
        print(f"{r.loss_id}: max_rel_error={r.max_rel_error:.3e} ok={r.ok}")
    if not all(r.ok for r in reports):
        raise ValueError("gradient check produced a non-finite result")
    over = [
        f"{r.loss_id} ({r.max_rel_error:.3e})" for r in reports if r.max_rel_error > GRAD_CHECK_TOL
    ]
    if over:
        raise ValueError(f"max_rel_error above {GRAD_CHECK_TOL:g}: {', '.join(over)}")
    return 0


def _cmd_report_merge(args) -> int:
    reports = [read_report(p) for p in args.inputs]
    merged = merge_reports(reports)
    write_report(args.out, merged)
    if args.csv:
        export_csv(merged, args.csv)
    print(
        f"merged {len(reports)} reports, {len(merged['entries'])} entries "
        f"-> {args.out}"
    )
    # canonical digest lets two runs be compared ignoring timestamps
    print(f"canonical bytes: {len(canonical_bytes(merged))}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dcemetrics",
        description="Contrast-weighted similarity metrics for dynamic MR sequences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_phantom = sub.add_parser("phantom", help="synthetic sequence generation")
    phantom_sub = p_phantom.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p_gen = phantom_sub.add_parser("gen", help="render a phantom sequence")
    p_gen.add_argument("--spec", dest="spec_file", required=True, help="JSON phantom spec file")
    p_gen.add_argument("--out-dir", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_phantom_gen)

    p_ce = sub.add_parser("cemask", help="detect enhancing voxels in a sequence")
    p_ce.add_argument("--seq", required=True, help="sequence tensor file")
    p_ce.add_argument("--out", required=True, help="output mask tensor file")
    p_ce.add_argument("--threshold", type=float, default=20.0)
    p_ce.add_argument("--baseline", type=int, default=0)
    p_ce.add_argument(
        "--signed-reverse",
        action="store_true",
        help="flag voxels whose baseline-minus-later difference exceeds the threshold",
    )
    p_ce.set_defaults(func=_cmd_cemask)

    p_dm = sub.add_parser("distmap", help="distance-based weight map from a mask")
    p_dm.add_argument("--mask", required=True, help="mask tensor file (nonzero = inside)")
    p_dm.add_argument("--out", required=True, help="output weight tensor file")
    p_dm.add_argument("--invert", action="store_true", help="emit the inverted map")
    p_dm.add_argument("--mode", choices=("voxel", "physical"), default="voxel")
    p_dm.set_defaults(func=_cmd_distmap)

    p_me = sub.add_parser("metrics", help="score a generated/content/style triple")
    p_me.add_argument("--generated", required=True)
    p_me.add_argument("--content", required=True)
    p_me.add_argument("--style", required=True)
    p_me.add_argument("--seq", required=True, help="sequence used for the CE mask")
    p_me.add_argument("--out", required=True, help="output report JSON")
    p_me.add_argument("--threshold", type=float, default=20.0)
    p_me.add_argument("--baseline", type=int, default=0)
    p_me.add_argument("--mode", choices=("2d", "3d"), default="3d")
    p_me.add_argument("--peak", default="auto", help="'auto' or a positive number")
    p_me.add_argument("--direction", choices=DIRECTIONS, default="nce_to_ce")
    p_me.set_defaults(func=_cmd_metrics)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of loss gradients")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--out", default=None, help="optional JSON report path")
    p_gc.set_defaults(func=_cmd_gradcheck)

    p_rep = sub.add_parser("report", help="report file operations")
    rep_sub = p_rep.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p_merge = rep_sub.add_parser("merge", help="pool entries and recompute aggregates")
    p_merge.add_argument("inputs", nargs="+", help="input report JSON files")
    p_merge.add_argument("--out", required=True, help="merged report JSON")
    p_merge.add_argument("--csv", default=None, help="optional flattened CSV path")
    p_merge.set_defaults(func=_cmd_report_merge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (TensorFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
