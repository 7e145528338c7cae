"""Orbit canonicalization toolkit.

Canonicalizers pick a fixed representative from the set of transformed
copies of a datum (rotations of an image, similarity transforms of a
point cloud, permutations of a vector).  Composing a model with a
canonicalizer makes it invariant to those transforms; the audit module
measures how much that buys in worst-case accuracy compared to training
tricks like random or adversarial augmentation.
"""

from .groups import (
    CanonResult,
    FiniteGroup,
    GroupAxiomError,
    check_group_axioms,
    equivariant_average,
    equivariant_canon,
    finite_orbit_canonicalize,
    invariant_wrap,
    quarter_turn_group,
    symmetric_group,
)
from .vectors import mean_subtract, sort_canonicalize, sort_energy
from .cloud import (
    DegenerateCloudError,
    PCAFrame,
    canonicalize_clouds,
    canonicalize_similarity,
    eig3_sym,
)
from .image import (
    GrayImage,
    SmoothImageModel,
    canonicalize_image,
    canonicalize_images,
    gaussian_blur,
    mean_gradient,
    rotate_image,
)
from .audit import (
    AuditReport,
    LabeledDataset,
    LinearSoftmaxModel,
    ReportDocument,
    TrainConfig,
    evaluate_rotation_grid_3d,
    evaluate_rotation_sweep_2d,
    evaluate_scale_sweep,
    gen_synthetic_clouds,
    gen_synthetic_images,
    rotation_about,
    rotation_grid_3d,
    softmax_curve,
    train_classifier,
)
from .formats import (
    load_dataset,
    load_model,
    read_off,
    read_pgm,
    read_report,
    read_xyz,
    save_dataset,
    save_model,
    write_pgm,
    write_report,
    write_xyz,
)

__version__ = "0.1.0"

__all__ = [
    "CanonResult",
    "FiniteGroup",
    "GroupAxiomError",
    "check_group_axioms",
    "equivariant_average",
    "equivariant_canon",
    "finite_orbit_canonicalize",
    "invariant_wrap",
    "quarter_turn_group",
    "symmetric_group",
    "mean_subtract",
    "sort_canonicalize",
    "sort_energy",
    "DegenerateCloudError",
    "PCAFrame",
    "canonicalize_clouds",
    "canonicalize_similarity",
    "eig3_sym",
    "GrayImage",
    "SmoothImageModel",
    "canonicalize_image",
    "canonicalize_images",
    "gaussian_blur",
    "mean_gradient",
    "rotate_image",
    "AuditReport",
    "LabeledDataset",
    "LinearSoftmaxModel",
    "TrainConfig",
    "evaluate_rotation_grid_3d",
    "evaluate_rotation_sweep_2d",
    "evaluate_scale_sweep",
    "gen_synthetic_clouds",
    "gen_synthetic_images",
    "rotation_about",
    "rotation_grid_3d",
    "softmax_curve",
    "train_classifier",
    "ReportDocument",
    "load_dataset",
    "load_model",
    "read_off",
    "read_pgm",
    "read_report",
    "read_xyz",
    "save_dataset",
    "save_model",
    "write_pgm",
    "write_report",
    "write_xyz",
]
