"""Learnable field-probing filters for 3D shape classification.

The pipeline, in dependency order: `ingest` turns OFF meshes and XYZ
clouds into normalized, voxelized occupancy grids; `field` converts
occupancy into distance and normal fields with trilinear sampling; `nn`
is the minimal dense network stack and its finite-difference checker;
`probing` holds the learnable filter bank and the batch-native probing
layer with its three stages (sensor, distance-to-weight Gaussian, dot
product); `synthetic` generates the five-primitive dataset and the
multilinear test field; `trainer` orchestrates datasets, training,
evaluation, checkpoints, and transfer; `bench` witnesses the
resolution-agnostic cost claim; `cli` wires it all to the `fieldprobe`
executable.
"""

from .bench import BenchReport, ConvConfig, conv3d_reference, run_bench
from .errors import FormatError, ParseError, TrainingDiverged
from .field import (
    Field3D,
    distance_field,
    field_from_occupancy,
    load_field,
    normal_field,
    sample_field,
    save_field,
)
from .ingest import (
    OccupancyGrid,
    Perturbation,
    ShapeSample,
    apply_perturbation,
    load_manifest,
    load_shape,
    normalize,
    parse_off,
    parse_perturbation_modes,
    parse_xyz,
    sample_perturbation,
    voxelize,
    write_off,
    write_xyz,
)
from .nn import (
    BatchNorm,
    Dropout,
    FullyConnected,
    Network,
    ReLU,
    Sgd,
    grad_check,
    softmax_cross_entropy,
)
from .probing import (
    FilterBank,
    InitConfig,
    ProbingLayer,
    dotproduct_forward,
    gaussian_forward,
    init_filter_bank,
    mac_count,
    sensor_forward,
)
from .synthetic import CLASS_NAMES, SyntheticSpec, generate_synthetic
from .trainer import (
    TrainConfig,
    evaluate_checkpoint,
    extract_features,
    gradient_check_report,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BatchNorm",
    "BenchReport",
    "CLASS_NAMES",
    "ConvConfig",
    "Dropout",
    "Field3D",
    "FilterBank",
    "FormatError",
    "FullyConnected",
    "InitConfig",
    "Network",
    "OccupancyGrid",
    "ParseError",
    "Perturbation",
    "ProbingLayer",
    "ReLU",
    "Sgd",
    "ShapeSample",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingDiverged",
    "apply_perturbation",
    "conv3d_reference",
    "distance_field",
    "dotproduct_forward",
    "evaluate_checkpoint",
    "extract_features",
    "field_from_occupancy",
    "gaussian_forward",
    "generate_synthetic",
    "grad_check",
    "gradient_check_report",
    "init_filter_bank",
    "load_checkpoint",
    "load_field",
    "load_manifest",
    "load_shape",
    "mac_count",
    "normal_field",
    "normalize",
    "parse_off",
    "parse_perturbation_modes",
    "parse_xyz",
    "run_bench",
    "sample_field",
    "sample_perturbation",
    "save_checkpoint",
    "save_field",
    "sensor_forward",
    "softmax_cross_entropy",
    "train",
    "voxelize",
    "write_off",
    "write_xyz",
]
