"""Regularized space-time least-squares solver for backward heat problems."""

from .config import ConfigError, ExperimentConfig, parse_config
from .mesh import (
    SpatialMesh,
    TimeMesh,
    refine_uniform,
    unit_interval_mesh,
    unit_square_initial,
)
from .precond import (
    RieszPreconditioner,
    UnsupportedMeshError,
    make_G_X,
    make_G_Y,
)
from .solver import (
    ErrorReport,
    LeastSquaresSystem,
    SolveReport,
    build_meshes,
    build_system,
    choose_epsilon,
    error_report,
    infsup_constant,
    pcg,
    solve_backward,
)
from .cli import main, run, write_csv

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ErrorReport",
    "ExperimentConfig",
    "LeastSquaresSystem",
    "RieszPreconditioner",
    "SolveReport",
    "SpatialMesh",
    "TimeMesh",
    "UnsupportedMeshError",
    "build_meshes",
    "build_system",
    "choose_epsilon",
    "error_report",
    "infsup_constant",
    "main",
    "make_G_X",
    "make_G_Y",
    "parse_config",
    "pcg",
    "refine_uniform",
    "run",
    "solve_backward",
    "unit_interval_mesh",
    "unit_square_initial",
    "write_csv",
    "__version__",
]
