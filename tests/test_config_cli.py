import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import cli, runner
from fluctlab.config import RunConfig, config_schema, parse_config
from fluctlab.errors import ConfigError, ModelValidationError
from fluctlab.report import canonical_json, emit
from fluctlab.runner import run

ROOT = Path(__file__).resolve().parent.parent
CHECKED_IN = sorted((ROOT / "configs").glob("*.json")) + [
    ROOT / "perfbench" / "configs" / "bench_n2_product_ansatz.json"
]

MINIMAL = {
    "model": {"class": "gaussian", "dim": 1, "two_point": {"form": "gaussian"}},
    "analyses": [{"kind": "scaling-sweep", "orders": [2]}],
}


def cfg_text(payload) -> str:
    return json.dumps(payload)


class TestParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(cfg_text(MINIMAL))
        assert cfg.numeric_block["alpha_mode"] == "canonical"
        assert cfg.numeric_block["r_grid"] == {"start": 8.0, "stop": 512.0, "count": 8}
        assert cfg.window_block["kind"] == "mollified-step"
        sc = cfg.scaling_config()
        assert sc.resolved_alpha(1) == 0.5
        assert len(sc.r_values) == 8 and sc.r_values[0] == 8.0 and sc.r_values[-1] == 512.0

    def test_duplicate_key_rejected(self):
        text = '{"model": {"class": "gaussian"}, "model": {"class": "powerlaw"}}'
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(text)

    def test_unknown_keys_listed(self):
        bad = dict(MINIMAL)
        bad["numeric"] = {"r_gird": {}, "epsilon": 1}
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_text(bad))
        assert "epsilon" in str(err.value) and "r_gird" in str(err.value)

    def test_unknown_analysis_kind(self):
        bad = dict(MINIMAL)
        bad["analyses"] = [{"kind": "fourier-party"}]
        with pytest.raises(ConfigError, match="fourier-party"):
            parse_config(cfg_text(bad))

    def test_alpha_outside_l2_window_rejected(self):
        bad = {
            "model": {"class": "powerlaw", "dim": 1, "beta": 0.75},
            "numeric": {"alpha_mode": "explicit", "alpha": 0.9},
            "analyses": [{"kind": "scaling-sweep", "orders": [2]}],
        }
        with pytest.raises(ConfigError, match="square-integrable window"):
            parse_config(cfg_text(bad))

    def test_alpha_inside_l2_window_accepted(self):
        good = {
            "model": {"class": "powerlaw", "dim": 1, "beta": 0.75},
            "numeric": {"alpha_mode": "explicit", "alpha": 0.7},
            "analyses": [{"kind": "scaling-sweep", "orders": [2]}],
        }
        parse_config(cfg_text(good))

    def test_weighted_needs_gamma_mode(self):
        bad = {
            "model": {
                "class": "weighted",
                "dim": 1,
                "orders": [{"order": 2, "alpha": 0.5,
                            "factor": {"form": "bessel-power", "power": 1.0}}],
            },
            "analyses": [{"kind": "scaling-sweep", "orders": [2]}],
        }
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(cfg_text(bad))

    def test_incompatible_model_analysis(self):
        bad = dict(MINIMAL)
        bad["analyses"] = [{"kind": "ssb-bound"}]
        with pytest.raises(ConfigError, match="incompatible"):
            parse_config(cfg_text(bad))

    def test_sharp_window_rejected(self):
        # the indicator window is no kind: its transform decays too slowly for the chain
        bad = dict(MINIMAL)
        bad["window"] = {"kind": "sharp", "dim": 1}
        with pytest.raises(ConfigError, match="unknown window kind 'sharp'"):
            parse_config(cfg_text(bad))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_rejected(self, literal):
        with pytest.raises(ConfigError, match=f"non-finite number {literal}"):
            parse_config('{"model": {"class": "powerlaw", "beta": %s}}' % literal)

    def test_schema_outline(self):
        schema = config_schema()
        assert "scaling-sweep" in schema["analyses"][0]["kind"]
        assert "bisect" in schema["numeric"]["alpha_mode"]


@pytest.fixture(scope="module")
def report(cache_dir):
    cfg = parse_config(cfg_text({
        "model": {"class": "gaussian", "dim": 1, "two_point": {"form": "gaussian"}},
        "numeric": {"r_grid": {"start": 8, "stop": 512, "count": 7}, "eps_vanish": 1e-3},
        "analyses": [
            {"kind": "scaling-sweep", "orders": [2, 3]},
            {"kind": "qmode", "order": 2, "q_values": [0.0, 0.3]},
        ],
    }))
    return cfg, run(cfg, cache_dir=cache_dir)


class TestRunAndEmit:

    def test_l1_sweep_verdicts(self, report):
        _, rep = report
        sweeps = rep.results[0]["sweeps"]
        assert sweeps[0]["verdict"] == "finite-nonzero"
        assert sweeps[1]["verdict"] == "vanishing"  # quasi-free: S_3 = 0

    def test_empty_analyses(self, cache_dir):
        cfg = parse_config(cfg_text({
            "model": {"class": "gaussian", "dim": 1, "two_point": {"form": "gaussian"}},
            "analyses": [],
        }))
        rep = run(cfg, cache_dir=cache_dir)
        assert rep.results == ()

    def test_json_round_trip(self, report, tmp_path):
        _, rep = report
        paths = emit(rep, tmp_path, "r", ["json"])
        payload = json.loads(paths[0].read_text())
        again = canonical_json(payload)
        assert again == canonical_json(json.loads(canonical_json(rep.payload())))

    def test_csv_row_count(self, report, tmp_path):
        cfg, rep = report
        paths = emit(rep, tmp_path, "r", ["csv"])
        rows = paths[0].read_text().strip().splitlines()
        n_r = cfg.numeric_block["r_grid"]["count"]
        expected = n_r * (2 + 2)  # two sweep orders + two q-mode sweeps
        assert len(rows) == 1 + expected
        assert rows[0] == "analysis,label,order,r,re,im,abs"

    def test_plot_data_slope(self, cache_dir, tmp_path):
        cfg = parse_config(cfg_text({
            "model": {"class": "product-ansatz", "dim": 1, "orders": {
                "2": [{"amplitude": 1.0, "width": 1.0}],
                "3": [{"amplitude": 1.0, "width": 1.0}, {"amplitude": 0.8, "width": 1.3}],
            }},
            "numeric": {"r_grid": {"start": 8, "stop": 512, "count": 7}, "eps_vanish": 1e-3},
            "analyses": [{"kind": "scaling-sweep", "orders": [3]}],
        }))
        rep = run(cfg, cache_dir=cache_dir)
        paths = emit(rep, tmp_path, "r", ["plot-data"])
        rows = [r.split(",") for r in paths[0].read_text().strip().splitlines()[1:]]
        x = np.array([float(r[2]) for r in rows])
        y = np.array([float(r[3]) for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_determinism(self, report, cache_dir):
        cfg, rep = report
        rep2 = run(cfg, cache_dir=cache_dir)
        assert canonical_json(rep.payload()) == canonical_json(rep2.payload())

    def test_timings_sidecar(self, report, tmp_path):
        _, rep = report
        paths = emit(rep, tmp_path, "s", ["json"])
        timings = json.loads(paths[1].read_text())
        assert "total" in timings


class TestCLI:
    def run_cli(self, args, env_cache):
        import os

        env = dict(os.environ)
        env["FLUCTLAB_CACHE"] = str(env_cache)
        return subprocess.run(
            [sys.executable, "-m", "fluctlab.cli", *args],
            capture_output=True, text=True, env=env,
        )

    def test_schema_command(self, cache_dir):
        proc = self.run_cli(["schema"], cache_dir)
        assert proc.returncode == 0
        json.loads(proc.stdout)

    def test_validate_and_run(self, tmp_path, cache_dir):
        path = tmp_path / "run.json"
        path.write_text(cfg_text({
            "model": {"class": "gaussian", "dim": 1, "two_point": {"form": "gaussian"}},
            "numeric": {"r_grid": {"start": 8, "stop": 512, "count": 7}},
            "analyses": [{"kind": "qmode", "order": 2, "q_values": [0.0]}],
            "output": {"directory": str(tmp_path / "out"), "formats": ["json", "csv"]},
        }))
        proc = self.run_cli(["validate", str(path)], cache_dir)
        assert proc.returncode == 0, proc.stderr
        proc = self.run_cli(["run", str(path)], cache_dir)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.csv").exists()

    def test_config_error_exit_code(self, tmp_path, cache_dir):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"class": "nonsense"}}')
        proc = self.run_cli(["run", str(path)], cache_dir)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_missing_file_exit_code(self, tmp_path, cache_dir):
        proc = self.run_cli(["run", str(tmp_path / "absent.json")], cache_dir)
        assert proc.returncode == 2

    def test_numerical_accuracy_exit_code(self, tmp_path, cache_dir):
        path = tmp_path / "tight.json"
        path.write_text(cfg_text({
            "model": {"class": "gaussian", "dim": 1, "two_point": {"form": "gaussian"}},
            "numeric": {"r_grid": {"start": 8, "stop": 512, "count": 7},
                        "quad": {"1": [6.0, 4, 8, 0]}},
            "analyses": [{"kind": "scaling-sweep", "orders": [2]}],
        }))
        proc = self.run_cli(["run", str(path)], cache_dir)
        assert proc.returncode == 3
        assert "numerical-accuracy" in proc.stderr

    def test_model_validation_exit_code(self, tmp_path, cache_dir):
        path = tmp_path / "badmodel.json"
        path.write_text(cfg_text({
            "model": {"class": "goldstone-ssb", "dim": 3,
                      "rho_qa": {"re": 0.0, "im": 5.0}},
            "analyses": [{"kind": "gap-check"}],
        }))
        proc = self.run_cli(["run", str(path)], cache_dir)
        assert proc.returncode == 4
        assert "model-validation" in proc.stderr


GAUSS = {"class": "gaussian", "dim": 1, "two_point": {"form": "gaussian"}}
SWEEP = [{"kind": "scaling-sweep", "orders": [2]}]
SSB = {"class": "goldstone-ssb", "dim": 3}
PRODUCT_N2 = {"class": "product-ansatz", "dim": 2, "orders": {"3": [{}, {"width": 1.3}]}}
QMODE3 = [{"kind": "qmode", "order": 3}]
PAIRS = {"class": "pair-family", "dim": 1, "labels": ["A", "B"], "pairs": {
    "AA": {"form": "gaussian"}, "BB": {"form": "gaussian"},
    "AB": {"form": "gaussian", "amplitude": 0.1}, "BA": {"form": "gaussian", "amplitude": 0.1}}}

# name: (configuration, exit code of both validate and run)
CONTRACT_CASES = {
    "powerlaw without beta": ({"model": {"class": "powerlaw", "dim": 1}, "analyses": SWEEP}, 2),
    "unknown rho_a key": ({"model": dict(SSB, rho_a={"amp": 1}), "analyses": [{"kind": "gap-check"}]}, 2),
    "gamma mode without order 2": ({
        "model": {"class": "weighted", "dim": 1, "orders": [
            {"order": 3, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}}]},
        "numeric": {"alpha_mode": "gamma"},
        "analyses": [{"kind": "scaling-sweep", "orders": [3]}]}, 2),
    "gamma mode on a gaussian model": ({"model": GAUSS, "numeric": {"alpha_mode": "gamma"},
                                        "analyses": SWEEP}, 2),
    "spectral-vector without samples": ({"model": {"class": "spectral-vector"},
                                         "analyses": [{"kind": "projector"}]}, 2),
    "scalar q_values": ({"model": GAUSS, "analyses": [{"kind": "qmode", "q_values": 0.5}]}, 2),
    "string eps_vanish in an analysis": ({"model": GAUSS, "analyses": [
        {"kind": "qmode", "numeric": {"eps_vanish": "1e-3"}}]}, 2),
    "string nan eps_vanish": ({"model": GAUSS, "numeric": {"eps_vanish": "nan"}, "analyses": SWEEP}, 2),
    "NaN literal": ('{"model": {"class": "powerlaw", "beta": NaN}}', 2),
    "overflowing powerlaw beta": ({"model": {"class": "powerlaw", "beta": 400.0}}, 2),
    "misspelled analysis numeric key": ({"model": GAUSS, "analyses": [
        {"kind": "qmode", "numeric": {"eps_vanihs": 1e-3}}]}, 2),
    "dim 4": ({"model": dict(GAUSS, dim=4), "analyses": SWEEP}, 2),
    "alpha_mode canon": ({"model": GAUSS, "numeric": {"alpha_mode": "canon"}, "analyses": SWEEP}, 2),
    # the rule is keyed by n, so the n = 1 chain holds N**2 points at every order
    "order 6 at n = 1": ({"model": GAUSS, "analyses": [{"kind": "scaling-sweep", "orders": [6]}]}, 0),
    "odd pairing order": ({"model": GAUSS, "analyses": [
        {"kind": "cumulant-roundtrip", "pairing_orders": [3]}]}, 2),
    "gap shape triangle": ({"model": SSB, "analyses": [{"kind": "gap-check", "shapes": ["triangle"]}]}, 2),
    "r_grid beyond the float range": ({"model": GAUSS, "numeric": {"r_grid": {"stop": 1e300}},
                                       "analyses": SWEEP}, 2),
    "r_grid count 0": ({"model": GAUSS, "numeric": {"r_grid": {"count": 0}}, "analyses": SWEEP}, 2),
    "too few radii in an analysis": ({"model": GAUSS, "analyses": [
        {"kind": "qmode", "numeric": {"r_grid": {"count": 5}}}]}, 2),
    # the window has no resolution key: an unknown key is rejected
    "resolution 10": ({"model": GAUSS, "window": {"resolution": 10}, "analyses": SWEEP}, 2),
    "unknown density form": ({"model": dict(GAUSS, two_point={"form": "cauchy"}), "analyses": SWEEP}, 2),
    "missing pair density": ({"model": {
        "class": "pair-family", "labels": ["A", "B"],
        "pairs": {"AA": {"form": "gaussian"}, "BB": {"form": "gaussian"}, "AB": {"form": "gaussian"}}},
        "analyses": [{"kind": "limit-state"}]}, 2),
    "cross density beyond Cauchy-Schwarz": ({"model": dict(SSB, rho_qa={"re": 0.0, "im": 5.0}),
                                             "analyses": [{"kind": "gap-check"}]}, 4),
    # the cross density overflows to inf below |k| = 1 (or above it), and
    # inf times the cutoff's 0 beyond 2 k_cut is NaN
    "cross density exponent 1e300": ({"model": dict(SSB, rho_qa={"re": 0.0, "im": 0.25, "exponent": 1e300}),
                                      "analyses": [{"kind": "ssb-bound"}]}, 4),
    "cross density exponent -1e300": ({"model": dict(SSB, rho_qa={"re": 0.0, "im": 0.25, "exponent": -1e300}),
                                       "analyses": [{"kind": "ssb-bound"}]}, 4),
    # 448**3 points per position-space array at order 4, over the 60M budget
    "weighted order 4": ({"model": {"class": "weighted", "dim": 1, "orders": [
        {"order": 2, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 1.0}},
        {"order": 4, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}}]},
        "numeric": {"alpha_mode": "gamma"},
        "analyses": [{"kind": "scaling-sweep", "orders": [4]}]}, 2),
    # radii whose window volume, and widths whose square, overflow a float
    "bogoliubov radius 1e300": ({"model": SSB, "analyses": [
        {"kind": "ssb-bound", "bogoliubov_radii": [8.0, 1e300]}]}, 2),
    "gap-check radius 1e300": ({"model": SSB, "analyses": [{"kind": "gap-check", "radius": 1e300}]}, 2),
    "pair width 1e300": ({"model": dict(PAIRS, pairs=dict(PAIRS["pairs"], AA={
        "form": "gaussian", "width": 1e300})), "analyses": [{"kind": "limit-state"}]}, 2),
    "commutator width 1e300": ({"model": PAIRS, "analyses": [{"kind": "limit-state", "commutator_pairs": [
        {"f": {"form": "lorentzian", "width": 1e300}, "g": {"form": "gaussian"}}]}]}, 2),
    "profile width 1e300": ({"model": {"class": "product-ansatz", "dim": 1, "orders": {
        "2": [{"width": 1e300}]}}, "analyses": SWEEP}, 2),
    # numeric.quad is keyed by the dimension n = 1..3
    "quad key 4": ({"model": GAUSS, "numeric": {"quad": {"4": [16.0, 8, 4, 0]}}, "analyses": SWEEP}, 2),
    # q-mode offsets keep the Cartesian chain, whose order-3 kernel on the
    # default n = 2 rule would hold 960**4 points; a small rule fits the budget
    "n = 2 q-mode order 3": ({"model": PRODUCT_N2, "analyses": QMODE3}, 2),
    "n = 2 q-mode order 3, small rule": ({"model": PRODUCT_N2, "analyses": QMODE3, "numeric": {
        "eps_vanish": 1.0, "quad": {"2": [8.0, 2, 4, 0]}}}, 0),
    # the radial kernel's support array grows with p_max: 32 x 10**7 points here
    "n = 2 order 3, huge p_max": ({"model": PRODUCT_N2, "analyses": [
        {"kind": "scaling-sweep", "orders": [3]}], "numeric": {"quad": {"2": [1e6, 8, 4, 0]}}}, 2),
    # the n = 3 Cartesian chain defaults to a 288-node rule: its order-3 kernel holds 288**6 points
    "n = 3 q-mode order 3": ({"model": dict(PRODUCT_N2, dim=3), "analyses": QMODE3}, 2),
    # a valid override that used to replace the whole resolved r_grid and crash
    "analysis r_grid override": ({"model": GAUSS, "analyses": [
        {"kind": "qmode", "numeric": {"r_grid": {"count": 7}}}]}, 0),
}


class TestValidateRunContract:
    @pytest.mark.parametrize("name", sorted(CONTRACT_CASES))
    def test_validate_and_run_agree(self, name, tmp_path, cache_dir, monkeypatch, capsys):
        config, expected = CONTRACT_CASES[name]
        if not isinstance(config, str):
            config = json.dumps(dict(config, output={"directory": str(tmp_path / "out")}))
        path = tmp_path / "case.json"
        path.write_text(config)
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["validate", str(path)]) == expected
        assert cli.main(["run", str(path)]) == expected
        if expected:
            assert "error" in capsys.readouterr().err

    def test_n3_qmode_order2_validates_on_the_default_rule(self, tmp_path, cache_dir, monkeypatch):
        # on the 288-node n = 3 Cartesian default one vector holds 288**3 points;
        # running it takes seconds and GBs, so only validate is checked here
        path = tmp_path / "n3.json"
        path.write_text(cfg_text({"model": dict(PRODUCT_N2, dim=3),
                                  "analyses": [{"kind": "qmode", "order": 2}],
                                  "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["validate", str(path)]) == 0

    def test_even_weight_exponent_vanishes(self, tmp_path, cache_dir, monkeypatch):
        config = json.loads((ROOT / "configs" / "criterion_09a_weighted_boundary.json").read_text())
        config["model"]["orders"][0]["alpha"] = 2.0
        config["model"]["orders"][1] = {"order": 3, "alpha": 2.0,
                                        "factor": {"form": "bessel-power", "power": 3.0}}
        config["output"] = {"directory": str(tmp_path / "out"), "basename": "even"}
        path = tmp_path / "even.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["run", str(path)]) == 0
        sweeps = json.loads((tmp_path / "out" / "even.json").read_text())["results"][0]["sweeps"]
        assert sweeps[1]["order"] == 3 and sweeps[1]["verdict"] == "vanishing"

    def test_overflow_in_the_numerics_exits_3(self, tmp_path, cache_dir, monkeypatch, capsys):
        # the radii and widths that overflowed at run are rejected at parse now,
        # so the overflow is raised from inside the analysis
        def overflow(*args):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(runner, "bogoliubov_check", overflow)
        path = tmp_path / "huge.json"
        path.write_text(cfg_text({"model": {"class": "goldstone-ssb", "dim": 3},
                                  "analyses": [{"kind": "ssb-bound", "bogoliubov_radii": [8.0]}],
                                  "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path)]) == 3
        assert "numerical-accuracy error" in capsys.readouterr().err

    def test_analysis_override_merges_over_the_top_level_block(self):
        cfg = parse_config(cfg_text({
            "model": GAUSS,
            "numeric": {"eps_vanish": 1e-4, "r_grid": {"start": 4, "stop": 1024, "count": 9}},
            "analyses": [{"kind": "qmode", "numeric": {"r_grid": {"count": 7}}}, {"kind": "qmode"}],
        }))
        (_, _, own), (_, _, top) = cfg.steps
        assert own.eps_vanish == top.eps_vanish == 1e-4
        assert len(own.r_values) == 7 and own.r_values[0] == 8.0 and own.r_values[-1] == 512.0
        assert len(top.r_values) == 9 and top.r_values[0] == 4.0

    def test_schema_lists_every_kind_and_class(self):
        schema = config_schema()
        assert len(schema["analyses"][0]["kind"]) == 7
        assert len(schema["model"]["class"]) == 8
        json.dumps(schema)


def test_r_grid_beyond_float_range_leaks_no_warning(tmp_path, cache_dir, monkeypatch):
    # rounding the radii scales them by 1e10: the grid turns inf, and
    # validate_r_grid rejects it without a RuntimeWarning
    config, expected = CONTRACT_CASES["r_grid beyond the float range"]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(dict(config, output={"directory": str(tmp_path / "out")})))
    monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["validate", str(path)]) == expected == 2
        assert cli.main(["run", str(path)]) == 2


def _locations(node):
    """Every (parent, key) below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _locations(child)


@st.composite
def mutated_configs(draw):
    """A checked-in configuration with one key dropped or one value replaced."""
    config = json.loads(draw(st.sampled_from(CHECKED_IN)).read_text())
    parent, key = draw(st.sampled_from(list(_locations(config))))
    value = parent[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ops = ["wrong type"]
    if isinstance(parent, dict):
        ops.append("drop")
    if number:
        ops += ["non-finite", "huge"] + ["int out of range"] * isinstance(value, int)
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del parent[key]
    elif op == "wrong type":
        others = ["x", 1.5, [], {}, None, True, 3]
        parent[key] = draw(st.sampled_from([v for v in others if type(v) is not type(value)]))
    elif op == "non-finite":
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, "nan"]))
    elif op == "huge":
        parent[key] = draw(st.sampled_from([1e300, -1e300, 1e-300]))
    else:
        parent[key] = draw(st.sampled_from([-1, 0, 10 ** 6, 2 ** 64, -10 ** 30, 10 ** 400]))
    return json.dumps(config)


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_parse_raises_only_mapped_errors(text):
    try:
        assert isinstance(parse_config(text), RunConfig)
    except (ConfigError, ModelValidationError):
        pass
