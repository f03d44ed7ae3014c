"""End-to-end command line tests, driven through cli.main for real exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from fpfkit import cli
from fpfkit.artifacts import load_oracle_csv, sha256_of

_REPO = Path(__file__).resolve().parents[1]


def _write_small_toy(path, seed=7):
    path.write_text(
        f"seed: {seed}\n"
        "model:\n  type: toy\n"
        "pipeline:\n  pilot_budget: 2000\n  iteration_budget: 2000\n"
        "  max_iterations: 1\n"
        "optimization:\n  allowable: [0.1]\n"
        "output:\n  fpf_grid_resolution: 5\n"
    )


# ---------------------------------------------------------- config errors ---


def test_missing_config_file_is_a_config_error(tmp_path):
    code = cli.main(
        ["run", "--config", str(tmp_path / "nope.yaml"), "--output", str(tmp_path / "o")]
    )
    assert code == cli.EXIT_CONFIG


def test_unparseable_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model: [unclosed\n")
    code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_invalid_config_values_are_a_config_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("seed: -1\nmodel:\n  type: toy\n")
    code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["run", "grid"])
def test_negative_seed_override_is_a_config_error(tmp_path, command):
    cfg = tmp_path / "run.yaml"
    _write_small_toy(cfg)
    out = tmp_path / "o"
    code = cli.main([command, "--config", str(cfg), "--output", str(out), "--seed", "-1"])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


# alpha and beta are no longer settings, so these exit 2 as unknown keys
@pytest.mark.parametrize("setting", ["beta: .nan", "beta: .inf", "beta: -.inf", "alpha: .inf"])
def test_non_finite_bsp_setting_is_a_config_error(tmp_path, setting):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"seed: 1\nmodel:\n  type: toy\npipeline:\n  bsp:\n    {setting}\n")
    code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_bad_thread_count_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.yaml"
    _write_small_toy(cfg)
    code = cli.main(
        ["grid", "--config", str(cfg), "--output", str(tmp_path / "o"), "--threads", "0"]
    )
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "flag", [["--resolution", "0"], ["--resolution", "1"], ["--per-point", "0"]]
)
def test_bad_grid_size_is_a_config_error(tmp_path, flag):
    cfg = tmp_path / "run.yaml"
    _write_small_toy(cfg)
    out = tmp_path / "o"
    code = cli.main(["grid", "--config", str(cfg), "--output", str(out), *flag])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


# A 2x2 grid broken three ways: (0, 0) twice in place of (0, 1), so the
# distinct coordinates still multiply to the row count; (0, 1) left out; and
# a nan where (0, 1)'s probability belongs.
_BROKEN_GRIDS = {
    "duplicate": ["0.0,0.0,0.1", "0.0,0.0,0.1", "1.0,0.0,0.3", "1.0,1.0,0.4"],
    "missing": ["0.0,0.0,0.1", "1.0,0.0,0.3", "1.0,1.0,0.4"],
    "nan": ["0.0,0.0,0.1", "0.0,1.0,nan", "1.0,0.0,0.3", "1.0,1.0,0.4"],
}


def _write_table_config(tmp_path):
    cfg = tmp_path / "table.yaml"
    cfg.write_text("seed: 3\nmodel:\n  type: table\n  table_path: t.csv\n")
    return cfg


def test_malformed_table_is_a_config_error(tmp_path):
    (tmp_path / "t.csv").write_text("phi_1,pf\n0.0,0.1\n1.0,abc\n")
    out = tmp_path / "o"
    code = cli.main(["run", "--config", str(_write_table_config(tmp_path)), "--output", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("case", sorted(_BROKEN_GRIDS))
def test_a_broken_table_grid_is_a_config_error_and_writes_nothing(tmp_path, case, command):
    rows = ["phi_1,phi_2,pf"] + _BROKEN_GRIDS[case]
    (tmp_path / "t.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    cfg = _write_table_config(tmp_path)
    code = cli.main([command, "--config", str(cfg), "--output", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "grid"])
def test_a_missing_table_is_a_config_error_and_writes_nothing(tmp_path, command):
    out = tmp_path / "o"
    cfg = _write_table_config(tmp_path)
    code = cli.main([command, "--config", str(cfg), "--output", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


_TWO_AXIS_TABLE = ["phi_1,phi_2,pf", "0.0,0.0,0.1", "0.0,1.0,0.2", "1.0,0.0,0.3", "1.0,1.0,0.4"]


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize(
    "model,bounds",
    [
        # the beam's b and h follow design axes 1 and 2
        ("  type: beam\n  band: [700.0, 900.0]\n", "[[30.0, 50.0]]"),
        ("  type: table\n  table_path: t.csv\n", "[[0.0, 1.0]]"),
        ("  type: table\n  table_path: t.csv\n", "[[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]"),
    ],
    ids=["beam-1d", "table-1d", "table-3d"],
)
def test_bounds_without_a_pair_per_model_axis_are_a_config_error(tmp_path, command, model, bounds):
    (tmp_path / "t.csv").write_text("\n".join(_TWO_AXIS_TABLE) + "\n")
    cfg = tmp_path / "bounds.yaml"
    cfg.write_text(f"seed: 0\nmodel:\n{model}design_space:\n  bounds: {bounds}\n")
    out = tmp_path / "o"
    code = cli.main([command, "--config", str(cfg), "--output", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


def test_argparse_surface():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


# ------------------------------------------------------------ run command ---


def test_run_writes_the_artifact_tree_and_honors_seed_override(tmp_path):
    cfg = tmp_path / "run.yaml"
    _write_small_toy(cfg)
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--config", str(cfg), "--output", str(out), "--seed", "9"]
    )
    assert code == cli.EXIT_OK

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["seed"] == 9
    assert manifest["config"]["seed"] == 9

    expected = {
        "fpf_grid.csv", "gradient_grid.csv", "optima.csv",
        "support_points.csv", "surface.json",
    }
    listed = set(manifest["artifacts"])
    assert expected <= listed
    # every artifact is present with a matching checksum, and nothing else
    on_disk = {
        str(p.relative_to(out))
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert listed == on_disk
    for rel, digest in manifest["artifacts"].items():
        assert sha256_of(out / rel) == digest

    n_levels = manifest["chain"]["n_iterations"] + 1
    for k in range(n_levels):
        assert f"levels/level_{k}.json" in listed
        assert f"levels/level_{k}_samples.npy" in listed

    header = (out / "fpf_grid.csv").read_text().splitlines()[0]
    assert header == "phi_1,composite_fpf,smoothed_fpf,analytic_fpf"
    assert (out / "optima.csv").read_text().splitlines()[0] == (
        "allowable,phi_1,objective,pf,feasible,active,n_starts"
    )
    total = manifest["evaluations"]["total"]
    assert total == sum(v for k, v in manifest["evaluations"].items() if k != "total")


def test_run_on_a_table_model_writes_the_table_column(tmp_path):
    axis = np.linspace(0.0, 1.0, 6).tolist()
    lines = ["phi_1,phi_2,pf"] + [
        f"{x!r},{y!r},{0.02 + 0.2 * x * y!r}" for x in axis for y in axis
    ]
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "table.yaml"
    cfg.write_text(
        "seed: 3\nmodel:\n  type: table\n  table_path: t.csv\n"
        "pipeline:\n  pilot_budget: 2000\n  iteration_budget: 2000\n"
        "  max_iterations: 1\n"
        "output:\n  fpf_grid_resolution: 3\n"
    )
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--output", str(out)])
    assert code == cli.EXIT_OK
    grid = (out / "fpf_grid.csv").read_text().splitlines()
    assert grid[0] == "phi_1,phi_2,composite_fpf,smoothed_fpf,table_fpf"
    assert len(grid) == 1 + 3 * 3
    assert grid[1].endswith(",0.02")


def test_an_allowable_no_start_meets_still_counts_its_starts(tmp_path):
    text = (_REPO / "configs" / "toy.yaml").read_text()
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text.replace("[1.0e-1, 1.0e-2, 1.0e-3]", "[0.1, 1.0e-12, 0.001]"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == cli.EXIT_OK
    lines = (out / "optima.csv").read_text().splitlines()
    assert lines[0].split(",")[4:] == ["feasible", "active", "n_starts"]
    rows = [line.split(",") for line in lines[1:]]
    assert [row[4] for row in rows] == ["1", "0", "1"]
    assert [row[6] for row in rows] == ["11", "11", "11"]


# ----------------------------------------------------------- grid command ---


def test_grid_writes_a_loadable_oracle(tmp_path):
    cfg = tmp_path / "run.yaml"
    _write_small_toy(cfg)
    out = tmp_path / "g"
    code = cli.main(
        ["grid", "--config", str(cfg), "--output", str(out),
         "--resolution", "3", "--per-point", "500"]
    )
    assert code == cli.EXIT_OK
    oracle = load_oracle_csv(out / "oracle.csv")
    assert oracle.resolution == 3
    assert np.all(oracle.n == 500)
    assert oracle.bounds == ((0.0, 4.0),)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "grid"
    assert manifest["evaluations"]["total"] == 1500


def test_grid_exits_with_the_runtime_code_when_theta_is_never_valid(tmp_path):
    # outer widths near 2.5 mm can never exceed twice the 2 mm wall
    cfg = tmp_path / "thin.yaml"
    cfg.write_text(
        "seed: 0\nmodel:\n  type: beam\n  band: [700.0, 900.0]\n"
        "design_space:\n  bounds: [[2.0, 3.0], [30.0, 50.0]]\n"
        "grid:\n  resolution: 2\n  n_per_point: 100\n"
    )
    out = tmp_path / "g"
    start = time.perf_counter()
    code = cli.main(["grid", "--config", str(cfg), "--output", str(out), "--threads", "2"])
    assert code == cli.EXIT_RUNTIME
    assert time.perf_counter() - start < 10.0
    assert not (out / "oracle.csv").exists()


# -------------------------------------------------------- compare command ---


def test_compare_passes_for_a_faithful_run(tmp_path, toy_run_dir, toy_oracle_dir):
    # the grid output directory resolves to the oracle.csv inside it
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--run", str(toy_run_dir), "--oracle",
         str(toy_oracle_dir), "--output", str(out)]
    )
    assert code == cli.EXIT_OK
    summary = json.loads((out / "comparison.json").read_text())
    assert summary["pass"] is True
    assert summary["n_judged"] > 0
    assert summary["fraction_within"] >= 0.9
    # the README's fixed compare rule, recorded with the result
    assert (summary["tol_log10"], summary["min_pf"], summary["min_fraction"]) == (0.3, 1e-4, 0.9)
    assert (out / "comparison.csv").exists()


def test_compare_fails_when_the_oracle_disagrees(tmp_path, toy_run_dir):
    # same grid, oracle pf shifted 30x low: every judged point lands ~1.5
    # decades off
    phis = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    lines = ["phi_1,pf_hat,n,cov"]
    for phi in phis:
        pf = float(norm.sf(phi)) / 30.0
        lines.append(f"{float(phi)!r},{pf!r},100000,0.01")
    oracle = tmp_path / "oracle.csv"
    oracle.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--run", str(toy_run_dir), "--oracle", str(oracle),
         "--output", str(out)]
    )
    assert code == cli.EXIT_COMPARISON
    summary = json.loads((out / "comparison.json").read_text())
    assert summary["pass"] is False
    assert summary["fraction_within"] < 0.9


def test_compare_rejects_mismatched_design_spaces(tmp_path, toy_run_dir):
    lines = ["phi_1,pf_hat,n,cov"]
    for phi in np.linspace(0.0, 5.0, 5):
        lines.append(f"{float(phi)!r},0.1,1000,0.09")
    oracle = tmp_path / "oracle.csv"
    oracle.write_text("\n".join(lines) + "\n")
    code = cli.main(
        ["compare", "--run", str(toy_run_dir), "--oracle", str(oracle),
         "--output", str(tmp_path / "cmp")]
    )
    assert code == cli.EXIT_CONFIG


def test_compare_rejects_a_malformed_oracle(tmp_path, toy_run_dir):
    oracle = tmp_path / "oracle.csv"
    oracle.write_text("phi_1,pf_hat,n,cov\n0.0,0.5,100,0.1\n4.0,abc,100,0.1\n")
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--run", str(toy_run_dir), "--oracle", str(oracle), "--output", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(_BROKEN_GRIDS))
def test_compare_rejects_a_broken_oracle_grid(tmp_path, case):
    # a flat surface over the broken grids' design space [0, 1]^2
    run = tmp_path / "run"
    run.mkdir()
    surface = {
        "x": [[0.5, 0.5]], "coef": [0.0], "length_scales": [1.0, 1.0], "signal_var": 1.0,
        "noise_floor": 1e-4, "y_mean": 0.0, "pf": 0.1, "bounds": [[0.0, 1.0], [0.0, 1.0]],
    }
    (run / "surface.json").write_text(json.dumps(surface))
    oracle = tmp_path / "oracle.csv"
    rows = ["phi_1,phi_2,pf_hat,n,cov"] + [row + ",100,0.1" for row in _BROKEN_GRIDS[case]]
    oracle.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--run", str(run), "--oracle", str(oracle), "--output", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tol-log10=0.3", "--min-pf=1e-4", "--min-fraction=0.9"])
def test_compare_thresholds_are_not_flags(tmp_path, toy_run_dir, toy_oracle_dir, flag):
    # the compare rule's thresholds are fixed; argparse exits 2 on the flags
    out = tmp_path / "cmp"
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["compare", "--run", str(toy_run_dir), "--oracle", str(toy_oracle_dir),
             "--output", str(out), flag]
        )
    assert exc.value.code == cli.EXIT_CONFIG
    assert not out.exists()


def _compare_with_surface(tmp_path, text, oracle_dir):
    run = tmp_path / "run"
    run.mkdir()
    (run / "surface.json").write_text(text)
    out = tmp_path / "cmp"
    code = cli.main(
        ["compare", "--run", str(run), "--oracle", str(oracle_dir), "--output", str(out)]
    )
    assert not out.exists()
    return code


def test_compare_rejects_a_truncated_surface(tmp_path, caplog, toy_oracle_dir):
    code = _compare_with_surface(tmp_path, '{"x": [', toy_oracle_dir)
    assert code == cli.EXIT_CONFIG
    assert "surface.json" in caplog.text


def test_compare_rejects_a_surface_without_coefficients(
    tmp_path, caplog, toy_run_dir, toy_oracle_dir
):
    record = json.loads((toy_run_dir / "surface.json").read_text())
    del record["coef"]
    code = _compare_with_surface(tmp_path, json.dumps(record), toy_oracle_dir)
    assert code == cli.EXIT_CONFIG
    assert "surface.json" in caplog.text


def test_compare_rejects_a_surface_whose_values_overflow(
    tmp_path, caplog, capsys, toy_run_dir, toy_oracle_dir
):
    # every number is finite, but exp of the log surface passes the float range
    record = json.loads((toy_run_dir / "surface.json").read_text())
    record["y_mean"] = 800.0
    code = _compare_with_surface(tmp_path, json.dumps(record), toy_oracle_dir)
    assert code == cli.EXIT_CONFIG
    assert "surface.json" in caplog.text and "overflow" in caplog.text
    assert "Traceback" not in capsys.readouterr().err + caplog.text


@pytest.mark.parametrize(
    "field, value, reason",
    [("pf", 0.0, "not a probability"), ("pf", -0.001, "not a probability"),
     ("y_mean", -800.0, "underflows to 0")],
)
def test_compare_rejects_a_surface_it_cannot_evaluate(
    tmp_path, caplog, capsys, toy_run_dir, toy_oracle_dir, field, value, reason
):
    # a pf outside (0, 1], or a surface whose exp underflows to 0 at an
    # oracle point, leaves no log10 ratio to judge
    record = json.loads((toy_run_dir / "surface.json").read_text())
    record[field] = value
    code = _compare_with_surface(tmp_path, json.dumps(record), toy_oracle_dir)
    assert code == cli.EXIT_CONFIG
    assert "surface.json" in caplog.text and reason in caplog.text
    assert "Traceback" not in capsys.readouterr().err + caplog.text


def _scale_first_length(record, factor):
    record["length_scales"][0] *= factor


# edits of the beam's seed-42 surface record, each breaking one rule of
# surface_from_record; every one of them used to load without complaint
_BROKEN_SURFACES = {
    "length-scales-cut": lambda r: r.update(length_scales=r["length_scales"][:1]),
    "x-one-column": lambda r: r.update(x=[row[:1] for row in r["x"]]),
    "x-flat": lambda r: r.update(x=[row[0] for row in r["x"]]),
    "coef-short": lambda r: r.update(coef=r["coef"][:-1]),
    "negative-length-scale": lambda r: _scale_first_length(r, -1.0),
    "zero-length-scale": lambda r: _scale_first_length(r, 0.0),
    "nan-signal-var": lambda r: r.update(signal_var=math.nan),
    "zero-signal-var": lambda r: r.update(signal_var=0.0),
    "negative-noise-floor": lambda r: r.update(noise_floor=-1e-4),
    "infinite-coef": lambda r: r["coef"].__setitem__(0, math.inf),
    "nan-x": lambda r: r["x"][0].__setitem__(1, math.nan),
    "nan-y-mean": lambda r: r.update(y_mean=math.nan),
    "infinite-pf": lambda r: r.update(pf=math.inf),
}


@pytest.mark.parametrize("case", [None, *_BROKEN_SURFACES])
def test_compare_rejects_a_surface_record_that_does_not_hold_together(
    tmp_path, caplog, beam_run_dir, case
):
    # a 2x2 oracle on the beam's box: a sound record is judged (exit 0 or 4)
    oracle = tmp_path / "oracle.csv"
    oracle.write_text(
        "phi_1,phi_2,pf_hat,n,cov\n"
        + "".join(f"{b},{h},0.01,100,0.99\n" for b in (30.0, 50.0) for h in (30.0, 50.0))
    )
    record = json.loads((beam_run_dir / "surface.json").read_text())
    if case is None:
        out = tmp_path / "cmp"
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "surface.json").write_text(json.dumps(record))
        code = cli.main(
            ["compare", "--run", str(tmp_path / "run"), "--oracle", str(oracle),
             "--output", str(out)]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_COMPARISON)
        return
    _BROKEN_SURFACES[case](record)
    code = _compare_with_surface(tmp_path, json.dumps(record), oracle)
    assert code == cli.EXIT_CONFIG
    assert "not a surface record" in caplog.text


def test_compare_requires_both_inputs(tmp_path, toy_run_dir, toy_oracle_dir):
    code = cli.main(
        ["compare", "--run", str(tmp_path / "empty"), "--oracle",
         str(toy_oracle_dir / "oracle.csv"), "--output", str(tmp_path / "c1")]
    )
    assert code == cli.EXIT_CONFIG
    code = cli.main(
        ["compare", "--run", str(toy_run_dir), "--oracle",
         str(tmp_path / "missing.csv"), "--output", str(tmp_path / "c2")]
    )
    assert code == cli.EXIT_CONFIG


# -------------------------------------------------------- runtime failures ---


def test_pipeline_failures_exit_with_the_runtime_code(tmp_path):
    # a design box at 8..9 sigma starves the pilot and subset simulation
    # runs out of levels
    cfg = tmp_path / "hard.yaml"
    cfg.write_text(
        "seed: 0\nmodel:\n  type: toy\n"
        "design_space:\n  bounds: [[8, 9]]\n"
        "pipeline:\n  pilot_budget: 2000\n  iteration_budget: 2000\n"
        "  max_iterations: 1\n"
    )
    code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME


def test_a_value_error_inside_run_exits_with_the_runtime_code(
    tmp_path, monkeypatch, capsys, caplog
):
    def broken_run(config, out_dir, base_dir=None):
        raise ValueError("degenerate box: lo=(4.8,), hi=(4.8,)")

    monkeypatch.setattr(cli, "run_command", broken_run)
    cfg = tmp_path / "toy.yaml"
    _write_small_toy(cfg)
    code = cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME
    assert "runtime failure: degenerate box" in caplog.text
    assert "Traceback" not in capsys.readouterr().err + caplog.text


# ----------------------------------------------------------------- imports ---

# cli.main's argv per probe, "{out}" standing for a temporary directory;
# None probes the import alone
_NO_SCIPY_PROBES = {
    "import": None,
    "toy-run": ["run", "--config", str(_REPO / "configs" / "toy.yaml"), "--output", "{out}"],
    "beam-grid": [
        "grid", "--config", str(_REPO / "configs" / "beam.yaml"), "--output", "{out}",
        "--resolution", "3", "--per-point", "2000", "--threads", "1",
    ],
}


@pytest.mark.parametrize("preset", [None, "3"])
def test_importing_fpfkit_sets_one_blas_thread_unless_the_caller_did(preset):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = "import os, fpfkit; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == (preset or "1")


@pytest.mark.parametrize("probe", list(_NO_SCIPY_PROBES))
def test_commands_load_no_scipy(tmp_path, probe):
    argv = _NO_SCIPY_PROBES[probe]
    if argv is not None:
        argv = [a.replace("{out}", str(tmp_path / "out")) for a in argv]
    script = (
        "import json, sys\n"
        "from fpfkit import cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = 0 if argv is None else cli.main(argv)\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "0 []"
