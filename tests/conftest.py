"""Shared fixtures.

The two benchmark pipelines and the oracle grids are deterministic for a
fixed seed, so they run once per session and every test reads from the same
results. All of them finish in seconds on one core.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from fpfkit.config import RunConfig, load_config
from fpfkit.model import DesignSpace, LimitStateModel, RandomVariableSpec
from fpfkit.pipeline import FPFApproximation, RegionChainResult, run_pipeline
from fpfkit.runner import build_problem, grid_command, run_command
from fpfkit.smoothing import SmoothedFPF, extract_support_points, fit_surface
from fpfkit.streams import Streams

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"


@dataclass(frozen=True)
class PipelineCase:
    """One fully evaluated benchmark: chain, FPF evaluators, and the model."""

    config: RunConfig
    model: LimitStateModel
    space: DesignSpace
    specs: tuple[RandomVariableSpec, ...]
    chain: RegionChainResult
    approx: FPFApproximation
    smoothed: SmoothedFPF


def _run_case(path: Path, seed: int | None = None) -> PipelineCase:
    config = load_config(path)
    if seed is not None:
        config = config.with_seed(seed)
    model, space, specs = build_problem(config, base_dir=path.parent)
    chain, approx = run_pipeline(
        model, space, specs, config.pipeline, Streams(np.random.SeedSequence(config.seed))
    )
    smoothed = SmoothedFPF(fit_surface(extract_support_points(chain)), chain.pf, space)
    return PipelineCase(config, model, space, specs, chain, approx, smoothed)


@pytest.fixture(scope="session")
def toy_case() -> PipelineCase:
    return _run_case(CONFIG_DIR / "toy.yaml")


@pytest.fixture(scope="session")
def beam_case() -> PipelineCase:
    return _run_case(CONFIG_DIR / "beam.yaml")


@pytest.fixture(scope="session", params=[42, 7])
def toy_rare_case(request) -> PipelineCase:
    """The subset-simulation toy workload (``bench/toy_rare.yaml``) at a seed."""
    return _run_case(REPO_ROOT / "bench" / "toy_rare.yaml", request.param)


@pytest.fixture(scope="session")
def toy_run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("toy_run")
    run_command(load_config(CONFIG_DIR / "toy.yaml"), out, base_dir=CONFIG_DIR)
    return out


@pytest.fixture(scope="session")
def beam_run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("beam_run")
    run_command(load_config(CONFIG_DIR / "beam.yaml"), out, base_dir=CONFIG_DIR)
    return out


@pytest.fixture(scope="session")
def toy_oracle_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("toy_oracle")
    grid_command(load_config(CONFIG_DIR / "toy.yaml"), out, base_dir=CONFIG_DIR)
    return out


@pytest.fixture(scope="session")
def beam_oracle_dir(tmp_path_factory) -> Path:
    """Full-size brute-force oracle grid for the beam (57.33M evaluations)."""
    out = tmp_path_factory.mktemp("beam_oracle")
    grid_command(load_config(CONFIG_DIR / "beam.yaml"), out, base_dir=CONFIG_DIR)
    return out
