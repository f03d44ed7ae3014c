"""fpfkit: failure probability surfaces over a design space.

The package estimates the probability of failure as a function of design
parameters from a single pool of failure samples. Failed samples from a pilot
reliability run are treated as draws from the design density conditional on
failure; an adaptive binary partition estimates that density, low-density
regions are repopulated with Markov chains and re-estimated, and the stitched
density is rescaled into a failure probability surface. A smooth log-scale
regression surface fitted to the partition cells supports gradients and
design optimization.
"""

import os

# Set before anything imports NumPy: OpenBLAS reads it once, at load. `run`
# is single-threaded by design and `grid`'s workers never call BLAS, so a
# BLAS worker pool only idles, and on a contended CPU its threads stall the
# surface fit's small eigendecompositions. A value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .benchmarks import (
    BoxBeamModel,
    TableModel,
    ToyModel,
    analytic_toy_fpf,
    beam_design_space,
    beam_frequency,
    beam_section,
    beam_variable_specs,
    grid_dmcs_oracle,
    objective_mean_area,
    toy_design_space,
    toy_variable_specs,
)
from .bsp import BinaryPartition, PiecewiseConstantDensity, bsp_estimate
from .config import PipelineConfig, RunConfig, load_config, parse_config
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateThresholdError,
    FpfkitError,
    RegionPopulationError,
)
from .model import (
    DesignSpace,
    LimitStateModel,
    RandomVariableSpec,
    SampleSet,
    resolve_parameters,
)
from .optimize import Optima, optimize
from .pipeline import (
    FPFApproximation,
    RegionChainResult,
    run_pipeline,
    threshold_from_ratio,
)
from .regions import RegionIndicator
from .reliability import (
    FailureEstimate,
    direct_mcs,
    mmh_chain,
    populate_region,
    subset_simulation,
)
from .smoothing import SmoothedFPF, extract_support_points, fit_surface
from .streams import Streams

__all__ = [
    "BinaryPartition",
    "BoxBeamModel",
    "ConfigError",
    "ConvergenceError",
    "DegenerateThresholdError",
    "DesignSpace",
    "FailureEstimate",
    "FPFApproximation",
    "FpfkitError",
    "LimitStateModel",
    "Optima",
    "PiecewiseConstantDensity",
    "PipelineConfig",
    "RandomVariableSpec",
    "RegionChainResult",
    "RegionIndicator",
    "RegionPopulationError",
    "RunConfig",
    "SampleSet",
    "SmoothedFPF",
    "Streams",
    "TableModel",
    "ToyModel",
    "analytic_toy_fpf",
    "beam_design_space",
    "beam_frequency",
    "beam_section",
    "beam_variable_specs",
    "bsp_estimate",
    "direct_mcs",
    "extract_support_points",
    "fit_surface",
    "grid_dmcs_oracle",
    "load_config",
    "mmh_chain",
    "objective_mean_area",
    "optimize",
    "parse_config",
    "populate_region",
    "resolve_parameters",
    "run_pipeline",
    "subset_simulation",
    "threshold_from_ratio",
    "toy_design_space",
    "toy_variable_specs",
]
