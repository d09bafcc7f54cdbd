"""Contrast-weighted similarity metrics for dynamic MR sequences.

The package evaluates style-transferred dynamic contrast sequences: it
detects enhancing voxels, turns them into distance-based weight maps,
and scores generated images with SSIM, multi-scale SSIM, PSNR and the
contrast-weighted SSIM pair (content-weighted and style-weighted).  A
deterministic phantom generator, neural building blocks with checked
gradients, raw tensor I/O and a CLI round it out.
"""

__version__ = "0.1.0"

from .io import (
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
from .kernels import (
    ConvLSTMState,
    ConvLSTMWeights,
    FixedFeatureExtractor,
    adain,
    bidirectional_convlstm,
    convlstm_cell,
    grad_check,
    gram_matrix,
    loss_adv_mse,
    loss_feature,
    loss_l1,
    loss_style_frob,
)
from .metrics import (
    CEMask,
    DistanceMap,
    EvalParams,
    MetricReport,
    MSSSIMParams,
    SSIMParams,
    cw_ssim,
    detect_ce,
    dice,
    distance_map,
    distance_transform,
    evaluate_triple,
    invert_map,
    ms_ssim,
    psnr,
    ssim,
)
from .phantom import PhantomOutput, PhantomSpec, Region, generate, make_triple
from .tensor import TensorND, VolumeSequence, conv

__all__ = [
    "__version__",
    "CEMask",
    "ConvLSTMState",
    "ConvLSTMWeights",
    "DistanceMap",
    "EvalParams",
    "FixedFeatureExtractor",
    "MetricReport",
    "MSSSIMParams",
    "PhantomOutput",
    "PhantomSpec",
    "Region",
    "SSIMParams",
    "TensorFileError",
    "TensorND",
    "VolumeSequence",
    "adain",
    "aggregate",
    "bidirectional_convlstm",
    "canonical_bytes",
    "conv",
    "convlstm_cell",
    "cw_ssim",
    "detect_ce",
    "dice",
    "distance_map",
    "distance_transform",
    "evaluate_triple",
    "export_csv",
    "generate",
    "grad_check",
    "gram_matrix",
    "invert_map",
    "loss_adv_mse",
    "loss_feature",
    "loss_l1",
    "loss_style_frob",
    "make_report",
    "make_triple",
    "merge_reports",
    "ms_ssim",
    "psnr",
    "read_header",
    "read_report",
    "read_tensor",
    "ssim",
    "write_report",
    "write_tensor",
]
