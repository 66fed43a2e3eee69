import json
import math
import os
import stat
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctlab import cli, runner, scaling, window
from fluctlab.config import RunConfig, config_schema, parse_config
from fluctlab.errors import ConfigError, InvalidArgumentError, ModelValidationError
from fluctlab.report import canonical_json, emit
from fluctlab.runner import run
from fluctlab.window import CACHE_FORMAT_VERSION

from conftest import traced_peak

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
        assert cfg.numeric_block["alpha"] is None
        assert cfg.numeric_block["r_grid"] == {"start": 8.0, "stop": 512.0, "count": 8}
        assert cfg.window_block["kind"] == "mollified-step"
        sc = cfg.steps[0][2]
        assert sc.alpha_for(cfg.model) == 0.5
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
            "numeric": {"alpha": 0.9},
            "analyses": [{"kind": "scaling-sweep", "orders": [2]}],
        }
        with pytest.raises(ConfigError, match="square-integrable window"):
            parse_config(cfg_text(bad))

    def test_alpha_inside_l2_window_accepted(self):
        good = {
            "model": {"class": "powerlaw", "dim": 1, "beta": 0.75},
            "numeric": {"alpha": 0.7},
            "analyses": [{"kind": "scaling-sweep", "orders": [2]}],
        }
        parse_config(cfg_text(good))

    def test_incompatible_model_analysis(self):
        bad = dict(MINIMAL)
        bad["analyses"] = [{"kind": "ssb-bound"}]
        with pytest.raises(ConfigError, match="incompatible"):
            parse_config(cfg_text(bad))

    def test_sharp_window_rejected(self, tmp_path, capsys):
        cases = {
            # the indicator's transform decays too slowly for the chain
            "sharp": ({"kind": "sharp"}, "window.kind must be one of ['mollified-step'], got 'sharp'"),
            # the mollified step is the one window, so a smoothstep is no kind
            # and its order no key
            "smoothstep": ({"kind": "smoothstep"},
                           "window.kind must be one of ['mollified-step'], got 'smoothstep'"),
            "smoothstep_order": ({"smoothstep_order": 3}, "unknown keys in window: smoothstep_order"),
        }
        for case, (window, named) in cases.items():
            path = tmp_path / f"{case}.json"
            path.write_text(cfg_text(dict(MINIMAL, window=window)))
            assert cli.main(["validate", str(path)]) == 2, case
            assert named in capsys.readouterr().err, case

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
        assert schema["numeric"]["alpha"] == "finite number or null"


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

    def test_set_alpha_renormalizes_every_sweep(self, report, cache_dir):
        # a set numeric.alpha is the exponent of every sweep and q-mode: the
        # fitted exponents move by -l (alpha - n/2) from those at n/2
        cfg, rep = report
        payload = json.loads(canonical_json(cfg.resolved()))
        payload["numeric"]["alpha"] = 0.9
        at_alpha = run(parse_config(cfg_text(payload)), cache_dir=cache_dir)
        for canonical, sweep in zip(rep.results[0]["sweeps"] + rep.results[1]["symmetric"],
                                    at_alpha.results[0]["sweeps"] + at_alpha.results[1]["symmetric"]):
            assert canonical["alpha"] == 0.5 and sweep["alpha"] == 0.9
            if sweep["exponent"] is not None:
                shift = -sweep["order"] * 0.4
                assert sweep["exponent"] == pytest.approx(canonical["exponent"] + shift, abs=1e-9)
        assert at_alpha.results[0]["sweeps"][0]["verdict"] == "vanishing"

    def test_set_alpha_is_the_weighted_gamma(self, cache_dir):
        # unset, a weighted model runs at gamma = (n + alpha_2)/2; set, at alpha,
        # with the marginal weight exponents l alpha - n
        config = weighted_case()
        assert run(parse_config(cfg_text(config)), cache_dir=cache_dir).results[0]["gamma"] == 0.75
        config["numeric"] = {"alpha": 0.625}
        result = run(parse_config(cfg_text(config)), cache_dir=cache_dir).results[0]
        assert result["gamma"] == 0.625 and result["sweeps"][0]["alpha"] == 0.625
        assert result["order_bounds"] == {"2": 0.25}

    def test_emit_rewrites_longer_and_shorter_files_in_place(self, report, tmp_path):
        # each output file is rewritten in place and cut to its new length:
        # over longer and then shorter files of the same names the bytes are
        # those of an emit into a fresh directory, in the same inodes
        _, rep = report
        formats = ["json", "csv", "plot-data"]
        fresh = {p.name: p.read_bytes() for p in emit(rep, tmp_path / "fresh", "r", formats)}
        out = tmp_path / "out"
        out.mkdir()
        for stale in ({name: data + b"x" * 4096 for name, data in fresh.items()},
                      {name: data[:len(data) // 3] for name, data in fresh.items()}):
            inodes = {}
            for name, data in stale.items():
                (out / name).write_bytes(data)
                inodes[name] = (out / name).stat().st_ino
            paths = emit(rep, out, "r", formats)
            assert {p.name: p.read_bytes() for p in paths} == fresh
            assert {p.name: p.stat().st_ino for p in paths} == inodes

    def test_new_output_files_take_the_umask_mode(self, report, tmp_path):
        _, rep = report
        old = os.umask(0o027)
        try:
            paths = emit(rep, tmp_path, "r", ["json", "csv", "plot-data"])
        finally:
            os.umask(old)
        assert len(paths) == 4 and {stat.S_IMODE(p.stat().st_mode) for p in paths} == {0o666 & ~0o027}

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
BESSEL = {"form": "bessel-power", "power": 1.0}


def weighted_case(factor=BESSEL, dim=1):
    """An order-2 weighted sweep whose factor block and dimension are given."""
    return {"model": {"class": "weighted", "dim": dim, "orders": [{"order": 2, "alpha": 0.5, "factor": factor}]},
            "analyses": SWEEP}


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
        "analyses": [{"kind": "scaling-sweep", "orders": [3]}]}, 2),
    "gamma mode on a gaussian model": ({"model": GAUSS, "numeric": {"alpha_mode": "gamma"},
                                        "analyses": SWEEP}, 2),
    "spectral-vector without samples": ({"model": {"class": "spectral-vector"},
                                         "analyses": [{"kind": "projector"}]}, 2),
    # an invariant-only vector has no momentum for the projector's envelope
    "spectral-vector with empty samples": ({"model": {"class": "spectral-vector", "samples": []},
                                            "analyses": [{"kind": "projector"}]}, 2),
    "scalar q_values": ({"model": GAUSS, "analyses": [{"kind": "qmode", "q_values": 0.5}]}, 2),
    "string eps_vanish in an analysis": ({"model": GAUSS, "analyses": [
        {"kind": "qmode", "numeric": {"eps_vanish": "1e-3"}}]}, 2),
    "string nan eps_vanish": ({"model": GAUSS, "numeric": {"eps_vanish": "nan"}, "analyses": SWEEP}, 2),
    "NaN literal": ('{"model": {"class": "powerlaw", "beta": NaN}}', 2),
    # the tau rule of the heat-kernel sum cannot resolve the Gamma(beta/2) weight
    # of a steep joint power: on the default grid its certificate fails from beta = 32
    "overflowing powerlaw beta": ({"model": {"class": "powerlaw", "beta": 400.0}, "analyses": SWEEP}, 2),
    "weighted order 2, p - alpha = 150": (weighted_case(dict(BESSEL, power=150.5)), 2),
    "powerlaw beta = 30": ({"model": {"class": "powerlaw", "dim": 1, "beta": 30.0}, "analyses": SWEEP}, 0),
    # the powerlaw's order 2 runs on its heat-kernel table, which takes no offsets
    "powerlaw q-mode": ({"model": {"class": "powerlaw", "dim": 1, "beta": 0.75},
                         "analyses": [{"kind": "qmode"}]}, 2),
    "misspelled analysis numeric key": ({"model": GAUSS, "analyses": [
        {"kind": "qmode", "numeric": {"eps_vanihs": 1e-3}}]}, 2),
    "dim 4": ({"model": dict(GAUSS, dim=4), "analyses": SWEEP}, 2),
    # the exponent is numeric.alpha or the model's marginal one: no mode picks it,
    # and the verdict band and the grid's decades are constants
    "alpha_mode canon": ({"model": GAUSS, "numeric": {"alpha_mode": "canon"}, "analyses": SWEEP}, 2),
    "exponent_band": ({"model": GAUSS, "numeric": {"exponent_band": 0.1}, "analyses": SWEEP}, 2),
    "min_decades": ({"model": GAUSS, "numeric": {"min_decades": 1.0}, "analyses": SWEEP}, 2),
    # a bracket searches the exponent, so a set one contradicts it
    "alpha with bisect_bracket": ({"model": {"class": "powerlaw", "dim": 1, "beta": 0.75},
                                   "numeric": {"alpha": 0.6},
                                   "analyses": [{"kind": "scaling-sweep", "bisect_bracket": [0.505, 0.75]}]}, 2),
    # without an order-2 weight a weighted model has no marginal exponent, and runs at a set one
    "weighted without order 2, alpha set": ({
        "model": {"class": "weighted", "dim": 1, "orders": [
            {"order": 3, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}}]},
        "numeric": {"alpha": 0.75},
        "analyses": [{"kind": "scaling-sweep", "orders": [3]}]}, 0),
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
    # c |k|^300 overflows below the cutoff, and inf times its 0 is NaN
    "goldstone-spectrum s = -300": ({"model": {"class": "goldstone-spectrum", "dim": 1, "c": 1.0, "s": -300.0},
                                     "analyses": [{"kind": "qmode", "q_values": [0]}]}, 4),
    "goldstone-spectrum c < 0": ({"model": {"class": "goldstone-spectrum", "dim": 1, "c": -1.0, "s": 0.5},
                                  "analyses": [{"kind": "qmode", "q_values": [0]}]}, 4),
    "cross density exponent -1e300": ({"model": dict(SSB, rho_qa={"re": 0.0, "im": 0.25, "exponent": -1e300}),
                                       "analyses": [{"kind": "ssb-bound"}]}, 4),
    # weighted orders run from heat-kernel tables on the chain, at every order of it
    "weighted order 4": ({"model": {"class": "weighted", "dim": 1, "orders": [
        {"order": 2, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 1.0}},
        {"order": 4, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}}]},
        "analyses": [{"kind": "scaling-sweep", "orders": [4]}]}, 0),
    # a weight that does not decay, p <= alpha, is no superposition of Gaussians
    "weighted power at alpha": (weighted_case(dict(BESSEL, power=0.5)), 2),
    "weighted order 3 power below alpha": ({"model": {"class": "weighted", "dim": 1, "orders": [
        {"order": 2, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 1.0}},
        {"order": 3, "alpha": 2.0, "factor": {"form": "bessel-power", "power": 1.5}}]},
        "analyses": [{"kind": "scaling-sweep", "orders": [2, 3]}]}, 2),
    # the order-3 table runs on the chain kernel, whose build evaluates an N x M basis,
    # 32 x 10**7 points here
    "weighted order 3, huge p_max": ({"model": {"class": "weighted", "dim": 2, "orders": [
        {"order": 2, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}},
        {"order": 3, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}}]},
        "numeric": {"quad": {"2": [1e6, 8, 4, 0]}},
        "analyses": [{"kind": "scaling-sweep", "orders": [3]}]}, 2),
    # a weighted order 3 runs on the N x N chain kernel: N = (1,000 + 16) x 10 here
    "weighted order 3, 10,160-node rule": ({"model": {"class": "weighted", "dim": 1, "orders": [
        {"order": 2, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 1.0}},
        {"order": 3, "alpha": 0.5, "factor": {"form": "bessel-power", "power": 2.0}}]},
        "numeric": {"quad": {"1": [120.0, 1000, 10, 16]}},
        "analyses": [{"kind": "scaling-sweep", "orders": [3]}]}, 2),
    # the joint power is the one weighted factor form, with power its one number
    "weighted gaussian form": (weighted_case({"form": "gaussian"}), 2),
    "weighted factor amplitude": (weighted_case(dict(BESSEL, amplitude=0.7)), 2),
    "weighted factor without power": (weighted_case({"form": "bessel-power"}), 2),
    # the heat-kernel tables run at n = 1, 2, 3; the position path, the
    # oracle, runs n = 1 only
    "weighted order 2 at n = 2": (weighted_case(dim=2), 0),
    "oracle at n = 2": ({"model": dict(GAUSS, dim=2), "analyses": [
        {"kind": "scaling-sweep", "orders": [2], "oracle_check_r_max": 8}]}, 2),
    "oracle on a weighted model": (dict(weighted_case(), analyses=[
        {"kind": "scaling-sweep", "orders": [2], "oracle_check_r_max": 8}]), 2),
    # an oracle with no order of the position path would check nothing
    "oracle with no order in 2..3": ({"model": {"class": "product-ansatz", "dim": 1, "orders": {
        "4": [{}, {}, {}]}}, "analyses": [{"kind": "scaling-sweep", "orders": [4], "oracle_check_r_max": 8}]}, 2),
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
    # q-mode offsets run on the radial chain at every n and order
    "n = 2 q-mode order 3": ({"model": PRODUCT_N2, "analyses": QMODE3}, 0),
    "n = 2 q-mode order 3, small rule": ({"model": PRODUCT_N2, "analyses": QMODE3, "numeric": {
        "eps_vanish": 1.0, "quad": {"2": [8.0, 2, 4, 0]}}}, 0),
    # the angle rule of the offsets' first vector grows with p_max: 32 x 1.6 10**7 points here
    "n = 2 q-mode, huge p_max": ({"model": PRODUCT_N2, "analyses": [{"kind": "qmode"}],
                                 "numeric": {"quad": {"2": [1e6, 8, 4, 0]}}}, 2),
    # the radial kernel's support array grows with p_max: 32 x 10**7 points here
    "n = 2 order 3, huge p_max": ({"model": PRODUCT_N2, "analyses": [
        {"kind": "scaling-sweep", "orders": [3]}], "numeric": {"quad": {"2": [1e6, 8, 4, 0]}}}, 2),
    "n = 3 q-mode order 3": ({"model": dict(PRODUCT_N2, dim=3), "analyses": QMODE3}, 0),
    # a valid override that used to replace the whole resolved r_grid and crash
    "analysis r_grid override": ({"model": GAUSS, "analyses": [
        {"kind": "qmode", "numeric": {"r_grid": {"count": 7}}}]}, 0),
}
# name: what the error message of a case must say
CONTRACT_MESSAGES = {"weighted gaussian form": "factor.form",
                     "weighted factor amplitude": "amplitude", "weighted factor without power":
                     "factor.power is required", "weighted power at alpha": "does not decay",
                     "weighted order 3 power below alpha": "does not decay",
                     "weighted order 3, huge p_max": "radial chain array",
                     "weighted order 3, 10,160-node rule": "103225600 points exceeds",
                     "goldstone-spectrum s = -300": "not finite on the sample grid",
                     "goldstone-spectrum c < 0": "violates positivity",
                     "oracle at n = 2": "n = 1 only",
                     "oracle on a weighted model": "no position-space form available for order 2",
                     "overflowing powerlaw beta": "TAU_RULE", "weighted order 2, p - alpha = 150": "TAU_RULE",
                     "powerlaw q-mode": "incompatible with model class 'powerlaw'",
                     "oracle with no order in 2..3": "oracle_check_r_max needs an order in 2..3",
                     "spectral-vector with empty samples": "at least one sample",
                     "alpha_mode canon": "unknown keys in numeric: alpha_mode",
                     "gamma mode on a gaussian model": "unknown keys in numeric: alpha_mode",
                     "exponent_band": "unknown keys in numeric: exponent_band",
                     "min_decades": "unknown keys in numeric: min_decades",
                     "alpha with bisect_bracket": "cannot go with numeric.alpha",
                     "gamma mode without order 2": "set numeric.alpha"}


#: checked-in configs whose runs build the chain kernel at n = 1, 2 and 3, the
#: folded overlaps of the oracle (04) and the heat-kernel tables of the
#: weighted orders (09a), whose order 3 builds the kernel of the graded rule
CACHE_CONFIGS = ("criterion_01_normal_scaling", "criterion_02_limit_two_point", "criterion_04_oracle",
                 "criterion_09a_weighted_boundary", "criterion_12a_high_order_n2",
                 "criterion_12b_high_order_n3")


def _no_kernel_build(frequency):
    raise AssertionError("a chain kernel was built where the window cache holds it")


def _no_overlap_build(profile, z_rule):
    raise AssertionError("a folded overlap was built where the window cache holds it")


def _no_heat_build(*args):
    raise AssertionError("a heat-kernel table was built where the window cache holds it")


def test_reports_equal_with_no_cold_and_warm_kernel_cache(tmp_path, monkeypatch):
    # the kernels, overlaps and heat-kernel tables a cold run writes into
    # the window cache are the ones the warm run reads instead of building
    # them, to the report byte; the integral of fhat^2 is a closed form and
    # keeps no file
    def run_all(name):
        for stem in CACHE_CONFIGS:
            scaling.clear_caches()
            assert cli.main(["run", str(ROOT / "configs" / f"{stem}.json"), "--out-dir", str(tmp_path / name)]) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.json")
                if not p.name.endswith("-timings.json")}

    monkeypatch.delenv("FLUCTLAB_CACHE", raising=False)
    uncached = run_all("none")
    cache = tmp_path / "cache"
    monkeypatch.setenv("FLUCTLAB_CACHE", str(cache))
    cold = run_all("cold")
    # the default rule of n = 1, 2, 3 and the graded rule of the weighted order 3 at n = 1
    assert sorted(p.name for p in cache.glob("chain_*.npy")) == sorted(
        [f"chain_n{n}_p120.0_48_10_0_v{CACHE_FORMAT_VERSION}.npy" for n in (1, 2, 3)]
        + [f"chain_n1_p120.0_48_10_16_v{CACHE_FORMAT_VERSION}.npy"])
    # the oracle's orders 2 and 3 on oracle_z_rule()
    assert sorted(p.name for p in cache.glob("overlap_*.npy")) == [
        f"overlap_n1_o{order}_z5.0_24_10_6_v{CACHE_FORMAT_VERSION}.npy" for order in (2, 3)]
    # the weighted orders 2 and 3 on the graded rule of n = 1
    assert sorted(p.name for p in cache.glob("heat_*.npy")) == [
        f"heat_n1_o{order}_p120.0_48_10_16_v{CACHE_FORMAT_VERSION}.npy" for order in (2, 3)]
    # beside the three tables nothing else, no pair_overlap_* file
    assert sorted(p.name.split("_")[0] for p in cache.iterdir()) == (
        ["chain"] * 4 + ["heat"] * 2 + ["overlap"] * 2 + ["window"] * 3)
    monkeypatch.setattr(scaling, "support_rule", _no_kernel_build)
    monkeypatch.setattr(scaling, "_folded_rows", _no_overlap_build)
    monkeypatch.setattr(scaling, "_heat_table", _no_heat_build)
    warm = run_all("warm")
    assert len(uncached) == len(CACHE_CONFIGS)
    assert cold == uncached and warm == uncached
    scaling.clear_caches()


def _no_cache_write(path, array):
    raise AssertionError(f"{path.name} was written where the window cache holds it")


def _no_window_build(dim):
    raise AssertionError("a window table was built where the window cache holds it")


def test_cache_loader_reads_every_file_a_cold_run_writes(tmp_path, monkeypatch):
    # every file of a cold cache (window tables, chain kernels of the default
    # and the graded rule, heat-kernel tables, folded overlaps) starts with
    # the exact header load_cache_array reads against: it returns np.load's
    # array bit for bit, C-ordered, and a warm rerun writes and builds nothing
    configs = [ROOT / "configs" / f"{stem}.json" for stem in
               ("criterion_01_normal_scaling", "criterion_04_oracle", "criterion_09a_weighted_boundary")]
    configs.append(ROOT / "perfbench" / "configs" / "bench_n2_product_ansatz.json")
    cache = tmp_path / "cache"
    monkeypatch.setenv("FLUCTLAB_CACHE", str(cache))

    def run_all(name):
        for path in configs:
            scaling.clear_caches()
            assert cli.main(["run", str(path), "--out-dir", str(tmp_path / name)]) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.json")
                if not p.name.endswith("-timings.json")}

    cold = run_all("cold")
    files = sorted(cache.iterdir())
    assert Counter(p.name.split("_")[0] for p in files) == {"chain": 3, "heat": 2, "overlap": 2, "window": 2}
    assert f"chain_n1_p120.0_48_10_16_v{CACHE_FORMAT_VERSION}.npy" in {p.name for p in files}
    for path in files:
        expected = np.load(path)
        array = window.load_cache_array(path, expected.shape)
        assert array.flags.c_contiguous and array.dtype == expected.dtype == np.float64, path.name
        assert array.shape == expected.shape and array.tobytes() == expected.tobytes(), path.name
    monkeypatch.setattr(window, "save_cache_array", _no_cache_write)
    monkeypatch.setattr(window, "make_profile", _no_window_build)
    monkeypatch.setattr(scaling, "support_rule", _no_kernel_build)
    monkeypatch.setattr(scaling, "_folded_rows", _no_overlap_build)
    monkeypatch.setattr(scaling, "_heat_table", _no_heat_build)
    try:
        assert run_all("warm") == cold
    finally:
        scaling.clear_caches()
    assert sorted(cache.iterdir()) == files


def test_table_of_the_old_name_is_neither_read_nor_touched(tmp_path, monkeypatch):
    # a cache written while the table's name still held its transform grid,
    # window_n<dim>_k<k_max>_m<k_resolution>_v<format>.npy: the kernels and
    # overlaps keep their names and are read, the file of the old name is
    # neither read nor changed, and the run writes only window_n<dim>_v<format>.npy
    config = ROOT / "configs" / "criterion_04_oracle.json"

    def run(name):
        scaling.clear_caches()
        assert cli.main(["run", str(config), "--out-dir", str(tmp_path / name)]) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.json")
                if not p.name.endswith("-timings.json")}

    cache = tmp_path / "cache"
    monkeypatch.setenv("FLUCTLAB_CACHE", str(cache))
    cold = run("cold")
    table = cache / f"window_n1_v{CACHE_FORMAT_VERSION}.npy"
    table.unlink()
    kept = sorted(p.name for p in cache.iterdir())
    old = cache / f"window_n1_k640.0_m10240_v{CACHE_FORMAT_VERSION}.npy"
    garbage = bytes(range(256)) * 320
    old.write_bytes(garbage)
    written, save = [], window.save_cache_array
    monkeypatch.setattr(window, "save_cache_array", lambda path, array: (written.append(path.name), save(path, array)))
    monkeypatch.setattr(scaling, "support_rule", _no_kernel_build)
    monkeypatch.setattr(scaling, "_folded_rows", _no_overlap_build)
    try:
        assert run("migrated") == cold
    finally:
        scaling.clear_caches()
    assert written == [table.name]
    assert old.read_bytes() == garbage
    assert sorted(p.name for p in cache.iterdir()) == sorted(kept + [old.name, table.name])
    with pytest.raises(InvalidArgumentError, match="cache file name"):
        window.WindowProfile.from_cache_file(old)


#: runs every checked-in config, argv[2:], into the directory argv[1] through
#: the command line, with the window cache $FLUCTLAB_CACHE
_RUN_ALL = ("import sys; from fluctlab import cli, scaling\n"
            "for path in sys.argv[2:]:\n"
            "    scaling.clear_caches()\n"
            "    assert cli.main(['run', path, '--out-dir', sys.argv[1]]) == 0, path\n")


def test_reports_do_not_depend_on_blas_threads(tmp_path):
    # the 18 criterion configs and the n = 2 benchmark config at one and at
    # two BLAS threads, each with a cold window cache and then with the cache
    # the other thread count wrote: every report has the same bytes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run_all(name, threads, cache):
        subprocess.run([sys.executable, "-c", _RUN_ALL, str(tmp_path / name)] + [str(p) for p in CHECKED_IN],
                       check=True, capture_output=True,
                       env={**env, "OPENBLAS_NUM_THREADS": threads, "FLUCTLAB_CACHE": str(tmp_path / cache)})
        return {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.json")
                if not p.name.endswith("-timings.json")}

    reports = [run_all("cold1", "1", "cache1"), run_all("cold2", "2", "cache2"),
               run_all("warm1", "1", "cache2"), run_all("warm2", "2", "cache1")]
    assert len(reports[0]) == len(CHECKED_IN) == 19
    for other in reports[1:]:
        assert other == reports[0]


def test_cache_files_take_the_umask_mode(tmp_path, monkeypatch):
    # a fresh cache holds tables, kernels and overlaps that every user may
    # read, as a plain open would make them under umask 022
    cache = tmp_path / "cache"
    monkeypatch.setenv("FLUCTLAB_CACHE", str(cache))
    old = os.umask(0o022)
    try:
        for stem in ("criterion_01_normal_scaling", "criterion_04_oracle"):
            scaling.clear_caches()
            assert cli.main(["run", str(ROOT / "configs" / f"{stem}.json"),
                             "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
        scaling.clear_caches()
    files = sorted(cache.iterdir())
    assert [p.name.split("_")[0] for p in files] == ["chain", "overlap", "overlap", "window"]
    assert {stat.filemode(p.stat().st_mode) for p in files} == {"-rw-r--r--"}


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
            err = capsys.readouterr().err
            assert "error" in err
            assert err.count(CONTRACT_MESSAGES.get(name, "error")) >= 2

    def test_n3_qmode_order2_validates_on_the_default_rule(self, tmp_path, cache_dir, monkeypatch):
        # the offsets' first vector is a 480-radius x 1,920-angle array on the default rule
        path = tmp_path / "n3.json"
        path.write_text(cfg_text({"model": dict(PRODUCT_N2, dim=3, orders={"2": [{}]}),
                                  "analyses": [{"kind": "qmode", "order": 2, "q_values": [0.0, 0.5],
                                                "net_offsets": [[0.7, 0.4]]}],
                                  "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path)]) == 0
        result = json.loads((tmp_path / "out" / "report.json").read_text())["results"][0]
        assert [s["verdict"] for s in result["symmetric"]] == ["finite-nonzero"] * 2
        assert result["net_offset_sweeps"][0]["verdict"] == "vanishing"

    def test_even_weight_exponent_vanishes(self, tmp_path, cache_dir, monkeypatch):
        # the order-2 weight alpha_2 = 2 sets gamma = 3/2; both weights decay
        # (p > alpha), so order 3 scales as R^(3 (1 - gamma) - 1)
        config = json.loads((ROOT / "configs" / "criterion_09a_weighted_boundary.json").read_text())
        config["model"]["orders"][0] = {"order": 2, "alpha": 2.0,
                                        "factor": {"form": "bessel-power", "power": 2.5}}
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

    @pytest.mark.parametrize("model, grid, radius", [
        (weighted_case()["model"], (1e3, 1e5), "13895"),
        ({"class": "powerlaw", "dim": 1, "beta": 0.75}, (256.0, 32768.0), "16384"),
        ({"class": "powerlaw", "dim": 1, "beta": 0.75}, (1e-5, 1.0), "1e-05")],
        ids=["weighted-top", "powerlaw-top", "powerlaw-bottom"])
    def test_radii_beyond_the_tau_rule_exit_2(self, tmp_path, cache_dir, monkeypatch, capsys, model, grid, radius):
        # the heat-kernel tau rule covers R from about 1.2e-4 to 10^4: a grid
        # radius beyond either edge is rejected by both commands, naming the
        # rule and the radius, before any quadrature
        path = tmp_path / "far.json"
        path.write_text(cfg_text({"model": model, "analyses": SWEEP, "output": {"directory": str(tmp_path / "out")},
                                  "numeric": {"r_grid": {"start": grid[0], "stop": grid[1], "count": 8}}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("TAU_RULE") == 2 and err.count(f"radius {radius} lies beyond") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width, expected", [(0.0, 1.0), (1.0, 0.0)])
    def test_density_at_a_huge_q_leaks_no_warning(self, tmp_path, cache_dir, monkeypatch, width, expected):
        # q^2 overflows at q = 1e200: a zero-width density is its amplitude
        # there, so that sweep equals the q = 0 one to the bit, and a
        # gaussian of width 1 is exactly 0
        path = tmp_path / "far.json"
        path.write_text(cfg_text({"model": {"class": "gaussian", "dim": 1,
                                            "two_point": {"form": "gaussian", "width": width}},
                                  "analyses": [{"kind": "qmode", "order": 2, "q_values": [0.0, 1e200]}],
                                  "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path)]) == 0
        at_zero, far = json.loads((tmp_path / "out" / "report.json").read_text())["results"][0]["symmetric"]
        assert far["two_point_at_q"] == {"re": expected, "im": 0.0}
        if width == 0.0:
            assert far["values"] == at_zero["values"] and far["verdict"] == "finite-nonzero"
        else:
            assert far["abs_values"] == [0.0] * 8 and far["verdict"] == "vanishing"

    def test_non_finite_sweep_exits_3(self, tmp_path, cache_dir, monkeypatch, capsys):
        # an amplitude near the float limit overflows the order-2 values to
        # inf, which the fit would mask and read as vanishing
        path = tmp_path / "inf.json"
        path.write_text(cfg_text(dict(MINIMAL, model={"class": "gaussian", "dim": 1, "two_point": {
            "form": "gaussian", "amplitude": 1e308}}, output={"directory": str(tmp_path / "out")})))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path)]) == 3
        assert "order-2 sweep is not finite at R = 8.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_steep_powerlaw_density_is_finite(self, tmp_path, cache_dir, monkeypatch, capsys):
        # at beta = 150 the Gamma(75) weight of the heat-kernel sum is about
        # 0.12 wide in ln tau, too narrow for the tau rule: its certificate
        # stops both commands, with no warning, where the value would be 1.5e-4 off
        path = tmp_path / "steep.json"
        path.write_text(cfg_text({"model": {"class": "powerlaw", "dim": 1, "beta": 150.0}, "analyses": SWEEP,
                                  "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", str(path)]) == 2
            assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("TAU_RULE") == 2
        assert not (tmp_path / "out").exists()

    def test_powerlaw_oracle_meets_the_heat_path(self, tmp_path, cache_dir, monkeypatch):
        # the powerlaw's order 2 runs on its heat-kernel table and keeps its
        # position form, which the oracle reads
        path = tmp_path / "powerlaw.json"
        path.write_text(cfg_text({"model": {"class": "powerlaw", "dim": 1, "beta": 0.75}, "analyses": [
            {"kind": "scaling-sweep", "orders": [2], "oracle_check_r_max": 16}],
            "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["run", str(path)]) == 0
        oracle = json.loads((tmp_path / "out" / "report.json").read_text())["results"][0]["oracle_check"]
        assert [row["radius"] for row in oracle["rows"]] == [8.0, 14.4915786282]
        assert oracle["max_rel_deviation"] <= 1e-8

    def test_oracle_skips_orders_beyond_the_position_path(self, tmp_path, cache_dir, monkeypatch):
        # orders 2..4 are swept; the oracle checks orders 2 and 3, the ones the position path runs
        g = {"amplitude": 1.0, "width": 1.0}
        path = tmp_path / "oracle.json"
        path.write_text(cfg_text({
            "model": {"class": "product-ansatz", "dim": 1, "orders": {"2": [g], "3": [g, g], "4": [g, g, g]}},
            "analyses": [{"kind": "scaling-sweep", "orders": [2, 3, 4], "oracle_check_r_max": 8}],
            "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path)]) == 0
        result = json.loads((tmp_path / "out" / "report.json").read_text())["results"][0]
        assert [s["order"] for s in result["sweeps"]] == [2, 3, 4]
        assert [row["order"] for row in result["oracle_check"]["rows"]] == [2, 3]
        assert result["oracle_check"]["max_rel_deviation"] <= 1e-6

    def test_cache_beneath_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        # the cache directory cannot be made: an error naming it, not a traceback
        (tmp_path / "file").write_text("")
        path = tmp_path / "case.json"
        path.write_text(cfg_text({"model": GAUSS, "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(tmp_path / "file" / "cache"))
        assert cli.main(["run", str(path)]) == 2
        assert f"cannot create window cache directory {tmp_path / 'file' / 'cache'}" in capsys.readouterr().err

    def test_directory_at_the_cache_file_exits_2(self, tmp_path, monkeypatch, capsys):
        # the read of a directory is a miss; the write that follows cannot replace it
        path = tmp_path / "case.json"
        path.write_text(cfg_text({"model": GAUSS, "output": {"directory": str(tmp_path / "out")}}))
        cache = tmp_path / "cache"
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache))
        assert cli.main(["run", str(path)]) == 0
        [table] = cache.glob("*.npy")
        table.unlink()
        table.mkdir()
        assert cli.main(["run", str(path)]) == 2
        assert f"cannot write window cache file {table}" in capsys.readouterr().err
        assert [p.name for p in cache.iterdir()] == [table.name]

    def test_directory_at_a_kernel_file_exits_2(self, tmp_path, monkeypatch, capsys):
        # the same for the chain kernel the window cache holds beside the table
        path = tmp_path / "case.json"
        path.write_text(cfg_text({"model": PRODUCT_N2, "analyses": [{"kind": "scaling-sweep", "orders": [3]}],
                                  "output": {"directory": str(tmp_path / "out")}}))
        cache = tmp_path / "cache"
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache))
        scaling.clear_caches()
        assert cli.main(["run", str(path)]) == 0
        [kernel] = cache.glob("chain_*.npy")
        kernel.unlink()
        kernel.mkdir()
        scaling.clear_caches()
        assert cli.main(["run", str(path)]) == 2
        assert f"cannot write window cache file {kernel}" in capsys.readouterr().err
        assert sorted(p.name for p in cache.iterdir()) == [kernel.name, f"window_n2_v{CACHE_FORMAT_VERSION}.npy"]
        scaling.clear_caches()

    @pytest.mark.parametrize("name", ["report.json", "report.csv", "report-plot.csv"])
    def test_directory_at_an_output_file_exits_2(self, tmp_path, cache_dir, monkeypatch, capsys, name):
        # every output file has one writer, which names the path it cannot write
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        path = tmp_path / "case.json"
        path.write_text(cfg_text(dict(MINIMAL, output={"directory": str(out), "formats": ["json", "csv", "plot-data"]})))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["run", str(path)]) == 2
        assert f"cannot write {out / name}" in capsys.readouterr().err

    def test_goldstone_spectrum_at_zero_momentum(self, tmp_path, cache_dir, monkeypatch):
        # c |k|^(-s) at q = 0 is c for s = 0, not inf
        path = tmp_path / "s0.json"
        path.write_text(cfg_text({"model": {"class": "goldstone-spectrum", "dim": 1, "c": 1.5, "s": 0},
                                  "analyses": [{"kind": "qmode", "q_values": [0]}],
                                  "output": {"directory": str(tmp_path / "out")}}))
        monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
        assert cli.main(["run", str(path)]) == 0
        result = json.loads((tmp_path / "out" / "report.json").read_text())["results"][0]
        assert result["symmetric"][0]["two_point_at_q"] == {"re": 1.5, "im": 0.0}

    def test_pairing_order_16_counts_in_bounded_time_and_memory(self, cache_dir):
        # the count is the pairing recursion over 16 slots, not a list of 16!! pairings
        cfg = parse_config(cfg_text({"model": GAUSS, "analyses": [
            {"kind": "cumulant-roundtrip", "pairing_orders": [16]}]}))
        cfg.build_window(cache_dir=cache_dir)
        t0 = time.perf_counter()
        rep = run(cfg, cache_dir=cache_dir)
        elapsed = time.perf_counter() - t0
        assert rep.results[0]["pairing_counts"] == {"16": {"pairings": 2027025, "expected": 2027025}}
        assert elapsed < 1.0
        assert traced_peak(lambda: run(cfg, cache_dir=cache_dir)) < 100e6

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


@pytest.mark.parametrize("case, payload, codes", [
    # an over-budget rule is rejected when the config is parsed
    ("budget", {"model": PRODUCT_N2, "analyses": [{"kind": "scaling-sweep", "orders": [3]}],
                "numeric": {"quad": {"2": [1e6, 8, 4, 0]}}}, (2, 2)),
    ("budget qmode", {"model": PRODUCT_N2, "analyses": QMODE3, "numeric": {"quad": {"2": [1e6, 8, 4, 0]}}}, (2, 2)),
    # the tail certificate is computed when the sweep resolves its rule
    ("tail", {"model": GAUSS, "analyses": SWEEP, "numeric": {"quad": {"1": [6.0, 4, 8, 0]}}}, (0, 3)),
    ("tail qmode", {"model": GAUSS, "analyses": [{"kind": "qmode", "net_offsets": [[0.7, 0.4]]}],
                    "numeric": {"quad": {"1": [6.0, 4, 8, 0]}}}, (0, 3)),
])
def test_wrong_resolution_exit_codes(tmp_path, cache_dir, monkeypatch, capsys, case, payload, codes):
    # the sweep resolves its rule and certificate once, and a wrong one still
    # maps to its exit code from validate and from run
    path = tmp_path / "case.json"
    path.write_text(cfg_text(dict(payload, output={"directory": str(tmp_path / "out")})))
    monkeypatch.setenv("FLUCTLAB_CACHE", str(cache_dir))
    assert (cli.main(["validate", str(path)]), cli.main(["run", str(path)])) == codes, case
    err = capsys.readouterr().err
    assert ("exceeds the budget" if codes[1] == 2 else "window tail bound") in err, case
    assert not (tmp_path / "out").exists(), case
