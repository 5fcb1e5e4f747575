"""foliation-lab: spectral laboratory for basic Dirac operators on model flows."""

__version__ = "0.1.0"

from .basic_calculus import (
    LeafVolumeDensity,
    dlog,
    project_basic,
)
from .bounds import (
    BoundReport,
    eval_bound,
    piecewise_reference,
    s3_bounds,
)
from .model_spaces import (
    GridSpec,
    MetricProfile,
    ProfileTerm,
    load_profile,
    torus_geometry,
    torus_metric_sample,
)
from .operators import (
    WeightedOperator,
    assemble_basic_dirac_forms,
    assemble_basic_dirac_spinor,
    assemble_basic_laplacian,
    assemble_lichnerowicz_sides,
)
from .spectral import (
    SpectrumReport,
    eigenvalues_weighted,
    spectrum_compare,
)
from .verify import (
    NonBasicMeanCurvatureError,
    VerificationReport,
    conjugation_residual,
    invariance_check,
    kappa_transform_residual,
    laplacian_dependence,
    lichnerowicz_residual,
    scal_relation_residual,
)

__all__ = [
    "BoundReport",
    "GridSpec",
    "LeafVolumeDensity",
    "MetricProfile",
    "NonBasicMeanCurvatureError",
    "ProfileTerm",
    "SpectrumReport",
    "VerificationReport",
    "WeightedOperator",
    "assemble_basic_dirac_forms",
    "assemble_basic_dirac_spinor",
    "assemble_basic_laplacian",
    "assemble_lichnerowicz_sides",
    "conjugation_residual",
    "dlog",
    "eval_bound",
    "eigenvalues_weighted",
    "invariance_check",
    "kappa_transform_residual",
    "laplacian_dependence",
    "lichnerowicz_residual",
    "load_profile",
    "piecewise_reference",
    "project_basic",
    "s3_bounds",
    "scal_relation_residual",
    "spectrum_compare",
    "torus_geometry",
    "torus_metric_sample",
]
