"""Tests for YAML config validation and the deterministic artifact formats."""

import hashlib
import json
import math

import numpy as np
import pytest
import yaml

from fpfkit import cli
from fpfkit.artifacts import (
    density_record,
    fmt,
    level_record,
    load_oracle_csv,
    load_surface,
    load_table_csv,
    sha256_of,
    surface_from_record,
    surface_record,
    write_csv,
    write_json,
    write_oracle_csv,
    write_samples_npy,
)
from fpfkit.benchmarks import FPFGridOracle, grid_points
from fpfkit.bsp import bsp_estimate
from fpfkit.config import RunConfig, load_config, parse_config
from fpfkit.errors import ConfigError
from fpfkit.model import DesignSpace, SampleSet
from helpers import density_from_record


def _minimal(**extra) -> dict:
    data = {"seed": 1, "model": {"type": "toy"}}
    data.update(extra)
    return data


# --------------------------------------------------------------- parsing ---


def test_minimal_config_fills_every_default():
    cfg = parse_config(_minimal())
    assert cfg.seed == 1
    assert cfg.model.type == "toy"
    assert cfg.model.band == (550.0, 600.0)
    assert cfg.model.length_mm == 500.0
    assert cfg.model.table_path is None
    assert cfg.bounds is None
    p = cfg.pipeline
    assert (p.pilot_budget, p.iteration_budget, p.max_iterations) == (8000, 8000, 4)
    assert (p.mass_ratio, p.pf_floor) == (0.1, 1e-4)
    assert (p.bsp.alpha, p.bsp.beta, p.bsp.particles, p.bsp.max_leaves) == (
        0.5, None, 100, 64,
    )
    assert (p.chains.burn_in, p.chains.max_chains, p.chains.scale_factor) == (
        10, 100, 1.0,
    )
    assert (p.subset.p0, p.subset.max_levels) == (0.1, 8)
    assert cfg.optimization.allowable == ()
    assert (cfg.grid.resolution, cfg.grid.n_per_point) == (21, 130000)
    assert cfg.output.fpf_grid_resolution == 21


def test_missing_required_fields_are_reported_together():
    with pytest.raises(ConfigError) as exc:
        parse_config({})
    message = str(exc.value)
    assert "seed: required" in message
    assert "model.type: required" in message


# removed keys: path -> (a value, the unknown key parse_config reports; a
# smoothing section is unknown as a whole)
_REMOVED_SETTINGS = {
    "smoothing.noise_floor": (1e-4, "smoothing"),
    "smoothing.length_scales": ([0.5], "smoothing"),
    "optimization.wall_mm": (2.0, "optimization.wall_mm"),
}


def test_unknown_keys_are_rejected_at_every_level():
    with pytest.raises(ConfigError, match="extra: unknown key"):
        parse_config(_minimal(extra={}))
    with pytest.raises(ConfigError, match="model.shape: unknown key"):
        parse_config({"seed": 1, "model": {"type": "toy", "shape": 3}})
    with pytest.raises(ConfigError, match=r"pipeline.bsp.depth: unknown key"):
        parse_config(_minimal(pipeline={"bsp": {"depth": 4}}))
    for path, (value, reported) in _REMOVED_SETTINGS.items():
        section, key = path.split(".")
        with pytest.raises(ConfigError) as exc:
            parse_config(_minimal(**{section: {key: value}}))
        assert str(exc.value).splitlines()[1:] == [f"  {reported}: unknown key"]


@pytest.mark.parametrize("path", list(_REMOVED_SETTINGS))
def test_a_removed_setting_exits_2_through_run(tmp_path, path):
    section, key = path.split(".")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(_minimal(**{section: {key: _REMOVED_SETTINGS[path][0]}})))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_scalar_type_and_range_checks():
    with pytest.raises(ConfigError, match="seed: expected int"):
        parse_config({"seed": "one", "model": {"type": "toy"}})
    with pytest.raises(ConfigError, match="seed: expected int"):
        parse_config({"seed": True, "model": {"type": "toy"}})
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        parse_config({"seed": -1, "model": {"type": "toy"}})
    with pytest.raises(ConfigError, match="pilot_budget: expected int"):
        parse_config(_minimal(pipeline={"pilot_budget": 8000.5}))
    with pytest.raises(ConfigError, match=r"mass_ratio: must lie in \(0, 1\)"):
        parse_config(_minimal(pipeline={"mass_ratio": 1.0}))
    # integral floats coerce
    assert parse_config(_minimal(seed=3.0)).seed == 3


def test_band_validation():
    with pytest.raises(ConfigError, match="increasing pair"):
        parse_config(_minimal(model={"type": "beam", "band": [900, 700]}))
    with pytest.raises(ConfigError, match=r"expected \[low, high\]"):
        parse_config(_minimal(model={"type": "beam", "band": 5}))
    for wrong_length in ([700], [700, 900, 1000]):
        with pytest.raises(ConfigError, match=r"model.band: expected \[low, high\]"):
            parse_config(_minimal(model={"type": "beam", "band": wrong_length}))
    cfg = parse_config(_minimal(model={"type": "beam", "band": [700, 900]}))
    assert cfg.model.band == (700.0, 900.0)


def test_table_model_requires_a_path():
    with pytest.raises(ConfigError, match="table_path: required"):
        parse_config(_minimal(model={"type": "table"}))
    cfg = parse_config(_minimal(model={"type": "table", "table_path": "t.csv"}))
    assert cfg.model.table_path == "t.csv"


def test_pilot_budget_must_split_under_subset_simulation():
    with pytest.raises(ConfigError, match="integer >= 2"):
        parse_config(_minimal(pipeline={"pilot_budget": 1001}))
    with pytest.raises(ConfigError, match="integer >= 2"):
        parse_config(_minimal(pipeline={"pilot_budget": 10}))
    cfg = parse_config(_minimal(pipeline={"pilot_budget": 2000}))
    assert cfg.pipeline.pilot_budget == 2000
    for p0 in (0.3, 0.4):  # 2400 or 3200 seeds cannot regrow 8000 in equal chains
        with pytest.raises(ConfigError, match="multiple of pilot_budget"):
            parse_config(_minimal(pipeline={"pilot_budget": 8000, "subset": {"p0": p0}}))
    for p0 in (0.2, 0.25, 0.5):
        cfg = parse_config(_minimal(pipeline={"pilot_budget": 8000, "subset": {"p0": p0}}))
        assert cfg.pipeline.subset.p0 == p0


def test_bounds_validation():
    cfg = parse_config(_minimal(design_space={"bounds": [[0, 4]]}))
    assert cfg.bounds == ((0.0, 4.0),)
    with pytest.raises(ConfigError, match="not increasing"):
        parse_config(_minimal(design_space={"bounds": [[4, 0]]}))
    for lo, hi in ((0.0, math.inf), (-math.inf, 4.0), (math.nan, 4.0)):
        with pytest.raises(ConfigError, match="is not finite"):
            parse_config(_minimal(design_space={"bounds": [[lo, hi]]}))
    with pytest.raises(ConfigError, match=r"list of \[lo, hi\] pairs"):
        parse_config(_minimal(design_space={"bounds": "wide"}))


def test_smoothing_and_optimization_validation():
    # the surface fit has no settings: a smoothing section is an unknown key
    with pytest.raises(ConfigError, match="smoothing: unknown key"):
        parse_config(_minimal(smoothing={}))
    with pytest.raises(ConfigError, match=r"allowable: values must lie in \(0, 1\)"):
        parse_config(_minimal(optimization={"allowable": [0.5, 1.5]}))
    with pytest.raises(ConfigError, match="allowable: expected a list of numbers"):
        parse_config(_minimal(optimization={"allowable": ["wide"]}))
    cfg = parse_config(_minimal(optimization={"allowable": [0.1, 0.01]}))
    assert cfg.optimization.allowable == (0.1, 0.01)


@pytest.mark.parametrize("value", [0, False, 0.01])
def test_allowable_that_is_not_a_list_is_rejected(value):
    with pytest.raises(ConfigError, match="optimization.allowable: expected a list of numbers"):
        parse_config(_minimal(optimization={"allowable": value}))


def test_absent_or_empty_allowable_skips_optimization():
    assert parse_config(_minimal()).optimization.allowable == ()
    for value in (None, []):
        cfg = parse_config(_minimal(optimization={"allowable": value}))
        assert cfg.optimization.allowable == ()


def test_every_problem_lands_in_one_error():
    data = {
        "seed": -1,
        "model": {"type": "toy"},
        "pipeline": {"mass_ratio": 2.0},
        "mystery": 1,
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    message = str(exc.value)
    assert message.startswith("invalid configuration:")
    assert "seed: must be >= 0" in message
    assert "mass_ratio" in message
    assert "mystery: unknown key" in message


def test_non_mapping_root_is_rejected():
    with pytest.raises(ConfigError, match="root must be a mapping"):
        parse_config(["seed", 1])


def test_with_seed_and_resolved_echo():
    cfg = parse_config(_minimal())
    reseeded = cfg.with_seed(7)
    assert reseeded.seed == 7
    assert cfg.seed == 1
    echo = cfg.resolved()
    assert echo["seed"] == 1
    assert echo["model"]["band"] == [550.0, 600.0]
    assert echo["pipeline"]["bsp"]["alpha"] == 0.5
    assert echo["optimization"]["allowable"] == []
    json.dumps(echo)  # manifest-ready


_EVERY_KEY = {
    "seed": 9,
    "model": {"type": "beam", "band": [700, 900], "length_mm": 450,
              "table_path": "t.csv"},
    "design_space": {"bounds": [[1, 2], [3, 4]]},
    "pipeline": {
        "pilot_budget": 5000, "iteration_budget": 6000, "max_iterations": 2,
        "mass_ratio": 0.2, "pf_floor": 1e-3,
        "bsp": {"alpha": 0.7, "beta": 3.5, "particles": 50, "max_leaves": 32},
        "mmh": {"burn_in": 5, "max_chains": 40, "scale_factor": 1.5},
        "subset": {"p0": 0.2, "max_levels": 6},
    },
    "optimization": {"allowable": [0.05]},
    "grid": {"resolution": 11, "n_per_point": 5000},
    "output": {"fpf_grid_resolution": 9},
}


def _leaves(tree, path=""):
    if isinstance(tree, dict):
        for key, val in tree.items():
            yield from _leaves(val, f"{path}{key}.")
    else:
        yield path[:-1], tree


def test_every_key_lands_on_its_own_field():
    echo = parse_config(_EVERY_KEY).resolved()
    assert echo == {
        "seed": 9,
        "model": {"type": "beam", "band": [700.0, 900.0], "length_mm": 450.0,
                  "table_path": "t.csv"},
        "bounds": [[1.0, 2.0], [3.0, 4.0]],
        "pipeline": {
            "pilot_budget": 5000, "iteration_budget": 6000, "max_iterations": 2,
            "mass_ratio": 0.2, "pf_floor": 1e-3,
            "bsp": {"alpha": 0.7, "beta": 3.5, "particles": 50, "max_leaves": 32},
            "chains": {"burn_in": 5, "max_chains": 40, "scale_factor": 1.5},
            "subset": {"p0": 0.2, "max_levels": 6},
        },
        "optimization": {"allowable": [0.05]},
        "grid": {"resolution": 11, "n_per_point": 5000},
        "output": {"fpf_grid_resolution": 9},
    }
    defaults = dict(_leaves(parse_config(_minimal()).resolved()))
    for path, val in _leaves(echo):
        assert val != defaults[path], path
        assert type(val) is type(defaults[path]) or defaults[path] in (None, []), path


@pytest.mark.parametrize(
    "path, bad, message",
    [
        ("seed", -1, "must be >= 0"),
        ("model.type", "cube", "must be one of beam, toy, table"),
        ("model.length_mm", 0, "must be positive"),
        ("pipeline.pilot_budget", 0, "must be positive"),
        ("pipeline.iteration_budget", 0, "must be positive"),
        ("pipeline.max_iterations", -1, "must be >= 0"),
        ("pipeline.mass_ratio", 1.0, "must lie in (0, 1)"),
        ("pipeline.pf_floor", 0, "must be positive"),
        ("pipeline.bsp.alpha", 0, "must be positive"),
        ("pipeline.bsp.particles", 0, "must be >= 1"),
        ("pipeline.bsp.max_leaves", 1, "must be >= 2"),
        ("pipeline.mmh.burn_in", -1, "must be >= 0"),
        ("pipeline.mmh.max_chains", 0, "must be >= 1"),
        ("pipeline.mmh.scale_factor", 0, "must be positive"),
        ("pipeline.subset.p0", 0.0, "must lie in (0, 1)"),
        ("pipeline.subset.max_levels", 0, "must be >= 1"),
        ("grid.resolution", 1, "must be >= 2"),
        ("grid.n_per_point", 0, "must be positive"),
        ("output.fpf_grid_resolution", 1, "must be >= 2"),
        ("model.length_mm", "long", "expected float"),
        ("model.table_path", 3, "expected str"),
        ("pipeline.bsp.beta", "wide", "expected float"),
        ("grid.resolution", 2.5, "expected int"),
    ],
)
def test_each_scalar_rule_names_its_full_key_path(path, bad, message):
    data = _minimal()
    *sections, key = path.split(".")
    node = data
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = bad
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    lines = [line.strip() for line in str(exc.value).splitlines()[1:]]
    assert f"{path}: {message}" in lines


@pytest.mark.parametrize(
    "key, text",
    [("beta", ".nan"), ("beta", ".inf"), ("beta", "-.inf"), ("alpha", ".inf")],
)
def test_non_finite_bsp_settings_are_rejected(tmp_path, key, text):
    path = tmp_path / "run.yaml"
    path.write_text(f"seed: 1\nmodel:\n  type: toy\npipeline:\n  bsp:\n    {key}: {text}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    lines = [line.strip() for line in str(exc.value).splitlines()[1:]]
    assert lines == [f"pipeline.bsp.{key}: must be finite"]


# --------------------------------------------------------------- loading ---


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        load_config(empty)


def test_load_config_round_trips_a_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: 5\nmodel:\n  type: toy\npipeline:\n  pilot_budget: 4000\n")
    cfg = load_config(path)
    assert isinstance(cfg, RunConfig)
    assert cfg.seed == 5
    assert cfg.pipeline.pilot_budget == 4000


# ----------------------------------------------------------- float format ---


def test_fmt_uses_shortest_round_trip_forms():
    assert fmt(0.1) == "0.1"
    assert fmt(3) == "3"
    assert fmt(np.int64(3)) == "3"
    assert fmt(True) == "1"
    assert fmt(False) == "0"
    assert fmt(1 / 3) == "0.3333333333333333"
    assert fmt("label") == "label"
    for value in (0.1 + 0.2, 1e-17, math.pi, 1234.5678e300):
        assert float(fmt(value)) == value


def test_write_csv_is_byte_stable(tmp_path):
    rows = [[0.1, 1, True], [0.2, 2, False]]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["x", "n", "flag"], rows)
    write_csv(b, ["x", "n", "flag"], rows)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == "x,n,flag\n0.1,1,1\n0.2,2,0\n"


def test_write_json_sorts_keys(tmp_path):
    path = tmp_path / "m.json"
    write_json(path, {"b": 1, "a": [2, 3]})
    assert path.read_text() == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"abc")
    assert sha256_of(path) == hashlib.sha256(b"abc").hexdigest()


# -------------------------------------------------------------- samples npy ---


def test_samples_npy_holds_the_exact_bits(tmp_path):
    # signed zeros, subnormals and values whose decimal text switches notation
    phi = np.array([[0.0], [-0.0], [1e16], [5e-324]])
    theta = np.array([[-0.0, 1e-5], [0.1, -1e-5], [1e16, 0.1], [-5e-324, 2.5]])
    performance = np.array([-0.0, -1e-5, -1e16, -123456789.0])
    path = tmp_path / "samples.npy"
    write_samples_npy(path, SampleSet(phi, theta, performance), ["a", "b"])
    records = np.load(path, allow_pickle=False)
    assert records.dtype.names == ("phi_1", "a", "b", "performance")
    assert records.shape == (4,)
    for name, column in [("phi_1", phi[:, 0]), ("a", theta[:, 0]), ("b", theta[:, 1]),
                         ("performance", performance)]:
        assert records[name].dtype == np.float64
        assert records[name].view(np.int64).tolist() == column.view(np.int64).tolist()


@pytest.mark.parametrize("name", ["toy", "beam"])
def test_run_samples_npy_round_trips_the_level_samples(name, request):
    out = request.getfixturevalue(f"{name}_run_dir")
    case = request.getfixturevalue(f"{name}_case")
    names = (
        [f"phi_{i + 1}" for i in range(case.space.ndim)]
        + [s.name for s in case.specs] + ["performance"]
    )
    for level in case.chain.levels:
        records = np.load(out / "levels" / f"level_{level.index}_samples.npy", allow_pickle=False)
        record = json.loads((out / "levels" / f"level_{level.index}.json").read_text())
        assert records.dtype.names == tuple(names)
        assert len(records) == record["n_samples"] == len(level.samples)
        table = np.hstack([level.samples.phi, level.samples.theta])
        for j, field in enumerate(names[:-1]):
            assert np.array_equal(records[field], table[:, j])
        assert np.array_equal(records["performance"], level.samples.performance)


# --------------------------------------------------------------- oracle csv ---


def _tiny_oracle() -> FPFGridOracle:
    space = DesignSpace(((0.0, 4.0),))
    points = grid_points(space, 3)
    pf = np.array([0.5, 0.125, 1 / 3])
    n = np.full(3, 100, dtype=int)
    cov = np.sqrt((1 - pf) / (n * pf))
    return FPFGridOracle(points, pf, n, cov, space.bounds, 3)


def test_oracle_csv_round_trip(tmp_path):
    oracle = _tiny_oracle()
    path = tmp_path / "oracle.csv"
    write_oracle_csv(path, oracle)
    assert path.read_text().splitlines()[0] == "phi_1,pf_hat,n,cov"
    back = load_oracle_csv(path)
    assert np.array_equal(back.points, oracle.points)
    assert np.array_equal(back.pf, oracle.pf)
    assert np.array_equal(back.n, oracle.n)
    assert np.array_equal(back.cov, oracle.cov)
    assert back.bounds == oracle.bounds
    assert back.resolution == 3
    assert back.total_evaluations == 300
    # a point without failures has cov = inf, and still loads
    zero = FPFGridOracle(
        oracle.points, np.array([0.5, 0.0, 0.25]), oracle.n, np.array([0.1, np.inf, 0.2]),
        oracle.bounds, 3,
    )
    write_oracle_csv(path, zero)
    assert np.array_equal(load_oracle_csv(path).cov, zero.cov)


def test_oracle_csv_rejects_malformed_files(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("phi_1,pf_hat,n\n0.0,0.5,100\n")
    with pytest.raises(ValueError, match="missing column cov"):
        load_oracle_csv(missing)
    unnamed = tmp_path / "unnamed.csv"
    unnamed.write_text("x,pf_hat,n,cov\n0.0,0.5,100,0.1\n")
    with pytest.raises(ValueError, match="phi_1"):
        load_oracle_csv(unnamed)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("phi_1,pf_hat,n,cov\n0.0,0.5,100,0.1\n0.0,0.4,100,0.1\n")
    with pytest.raises(ValueError, match="full factorial"):
        load_oracle_csv(ragged)
    for name, pf, n, match in [
        ("pf_high", "1.5", "100", "pf_hat"),
        ("pf_low", "-0.2", "100", "pf_hat"),
        ("n_fractional", "0.5", "99.7", "n values"),
        ("n_negative", "0.5", "-5", "n values"),
        ("n_zero", "0.5", "0", "n values"),
    ]:
        bad = tmp_path / f"{name}.csv"
        bad.write_text(f"phi_1,pf_hat,n,cov\n0.0,0.5,100,0.1\n4.0,{pf},{n},0.1\n")
        with pytest.raises(ValueError, match=match) as exc:
            load_oracle_csv(bad)
        assert str(bad) in str(exc.value)


def test_table_csv_loader(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(
        "phi_1,phi_2,pf\n"
        "0.0,0.0,0.5\n0.0,1.0,0.4\n1.0,0.0,0.3\n1.0,1.0,0.2\n"
    )
    axes, values = load_table_csv(path)
    assert np.array_equal(axes[0], [0.0, 1.0])
    assert np.array_equal(axes[1], [0.0, 1.0])
    assert np.array_equal(values, [[0.5, 0.4], [0.3, 0.2]])
    bad = tmp_path / "bad.csv"
    bad.write_text("phi_1,pf\n0.0,0.5\n0.0,0.4\n")
    with pytest.raises(ValueError, match="full factorial"):
        load_table_csv(bad)
    headless = tmp_path / "headless.csv"
    headless.write_text("x,y\n0.0,0.5\n")
    with pytest.raises(ValueError, match="pf columns"):
        load_table_csv(headless)


# ----------------------------------------------------- estimator round trips ---


def test_density_record_round_trip():
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 1.0, size=(40, 2))
    density = bsp_estimate(points, (0.0, 0.0), (1.0, 1.0), rng, max_leaves=8)
    record = density_record(density)
    json.dumps(record)  # plain types only
    back = density_from_record(record)
    assert back.log_score == density.log_score
    assert np.array_equal(back.masses, density.masses)
    assert np.array_equal(back.partition.boxes, density.partition.boxes)
    assert np.array_equal(back.partition.counts, density.partition.counts)
    assert density_record(back) == record


def test_level_record_is_manifest_ready(toy_case):
    level = toy_case.chain.levels[0]
    record = level_record(level)
    json.dumps(record)
    assert record["index"] == 0
    assert record["n_samples"] == len(level.samples)
    assert len(record["cells"]) == len(level.masses)
    assert [len(c["pieces"]) for c in record["cells"]] == np.bincount(level.piece_cell).tolist()
    assert record["estimate"]["masses"] == [float(m) for m in level.raw.masses]
    first = record["cells"][0]
    assert set(first) == {"pieces", "volume", "mass", "density", "low"}
    assert [c["low"] for c in record["cells"]] == [bool(v) for v in level.low_mask]


def test_surface_record_round_trip(toy_case, tmp_path):
    smoothed = toy_case.smoothed
    record = surface_record(smoothed)
    json.dumps(record)
    back = surface_from_record(record)
    assert back.pf == smoothed.pf
    assert back.space.bounds == smoothed.space.bounds
    probes = np.linspace(0.0, 4.0, 9)[:, None]
    assert np.array_equal(back(probes), smoothed(probes))
    assert np.array_equal(back.gradient(probes), smoothed.gradient(probes))
    path = tmp_path / "surface.json"
    write_json(path, record)
    loaded = load_surface(path)
    assert np.array_equal(loaded(probes), smoothed(probes))
