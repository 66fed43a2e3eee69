"""Acceptance suite: every criterion at its stated tolerance.

Each scenario is driven by a configuration file from configs/, executed
through the same parse/run pipeline as the CLI; a PASS line is printed per
criterion (run with -s to see them).  The determinism criterion re-runs
every configuration and compares canonical report bytes.
"""

import csv
import json
import time
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from fluctlab.config import parse_config
from fluctlab.limit_algebra import LimitState, weyl_expectation
from fluctlab.report import canonical_json, emit
from fluctlab.runner import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def reports(cache_dir):
    """Run every checked-in criterion configuration once."""
    out = {}
    for path in sorted(CONFIG_DIR.glob("criterion_*.json")):
        cfg = parse_config(path.read_text())
        t0 = time.perf_counter()
        rep = run(cfg, cache_dir=cache_dir)
        out[path.stem] = {
            "config": cfg,
            "report": rep,
            "payload": canonical_json(rep.payload()),
            "elapsed": time.perf_counter() - t0,
            "path": path,
        }
    return out


def _sweep(report, order):
    for res in report.results:
        if res["kind"] == "scaling-sweep":
            for sweep in res["sweeps"]:
                if sweep["order"] == order:
                    return sweep
    raise AssertionError(f"no sweep of order {order} in report")


def _json_sweeps(node):
    """The sweeps below a parsed JSON report node: dicts holding r_values and values."""
    if isinstance(node, dict):
        if "r_values" in node and "values" in node:
            return [node]
        node = node.values()
    elif not isinstance(node, list):
        return []
    return [sweep for child in node for sweep in _json_sweeps(child)]


def _announce(num, text):
    print(f"[criterion {num:>3}] {text}: PASS")


class TestAcceptance:
    def test_01_normal_scaling_exponents(self, reports):
        entry = reports["criterion_01_normal_scaling"]
        targets = {2: (0.0, 0.05), 3: (-0.5, 0.1), 4: (-1.0, 0.1)}
        for order, (target, tol) in targets.items():
            sweep = _sweep(entry["report"], order)
            assert sweep["exponent"] == pytest.approx(target, abs=tol), f"order {order}"
        assert entry["elapsed"] < 120.0
        _announce("01", "truncated correlators scale as R^((2-l)n/2) for l=2,3,4 "
                        f"(runtime {entry['elapsed']:.0f}s)")

    def test_02_limit_two_point_value(self, reports, profile1):
        entry = reports["criterion_02_limit_two_point"]
        res = entry["report"].results[0]
        sweep = res["symmetric"][0]
        value = complex(sweep["limit_value"]["re"], sweep["limit_value"]["im"])
        # both factors computed independently: the model density at zero
        # momentum is exactly 1, the window overlap comes from the cache
        target = 1.0 * profile1.pair_overlap_integral()
        assert abs(value - target) <= 0.01 * abs(target)
        _announce("02", "2-point limit equals S(0) * window pair overlap within 1%")

    def test_03_qmode_limits(self, reports):
        entry = reports["criterion_03_qmode"]
        res = entry["report"].results[0]
        assert len(res["symmetric"]) == 5
        for sweep in res["symmetric"]:
            value = complex(sweep["limit_value"]["re"], sweep["limit_value"]["im"])
            s_q = complex(sweep["two_point_at_q"]["re"], sweep["two_point_at_q"]["im"])
            target = s_q * res["pair_overlap_integral"]
            assert abs(value - target) <= 0.01 * abs(target), f"q={sweep['q']}"
        for sweep in res["net_offset_sweeps"]:
            assert sweep["verdict"] == "vanishing"
        _announce("03", "opposite-momentum limits test the spectral density; "
                        "nonzero net momentum vanishes")

    def test_04_oracle_equivalence(self, reports):
        entry = reports["criterion_04_oracle"]
        check = entry["report"].results[0]["oracle_check"]
        radii = sorted({row["radius"] for row in check["rows"]})
        orders = sorted({row["order"] for row in check["rows"]})
        assert orders == [2, 3] and max(radii) <= 8.0
        assert check["max_rel_deviation"] < 1e-6
        # with value reading the exact profile the deviation measures 4.2e-9
        assert check["max_rel_deviation"] <= 1e-8
        _announce("04", f"spectral vs position-space paths agree to "
                        f"{check['max_rel_deviation']:.1e} (l=2,3, R<=8)")

    def test_05_cumulant_machinery(self, reports):
        entry = reports["criterion_05_cumulants"]
        res = entry["report"].results[0]
        assert res["max_roundtrip_rel_error"] < 1e-12
        assert res["max_gaussian_higher_cumulant"] < 1e-12
        for m, counts in res["pairing_counts"].items():
            m = int(m)
            half = m // 2
            assert counts["pairings"] == counts["expected"] == (
                factorial(m) // (2 ** half * factorial(half))
            )
        _announce("05", "moment/cumulant round trip at 1e-12; pairing counts "
                        "(2n)!/(2^n n!) for n<=6; Gaussian cumulants vanish")

    def test_06_weyl_ccr(self, reports):
        # series vs closed form within the analytic tail bound
        for s in (0.1, 1.0, 4.0):
            state = LimitState(labels=("A",), covariance=np.array([[s]], dtype=complex))
            check = weyl_expectation(state, "A", 8)
            assert check.within_bound, f"s={s}"
        entry = reports["criterion_06_weyl_ccr"]
        res = entry["report"].results[0]
        assert all(w["within_bound"] for w in res["weyl"])
        assert all(c["consistent"] for c in res["ccr"])
        sigma = np.asarray(res["state"]["symplectic_part"])
        assert abs(sigma[0][1]) > 0  # genuinely noncommuting pair
        _announce("06", "exponential series match the Weyl closed form within "
                        "tail bounds; assembled limit state passes invariants")

    def test_07_commutator_criterion(self, reports, profile1):
        entry = reports["criterion_07_commutator"]
        res = entry["report"].results[0]
        trivial, unit = res["commutators"]
        assert trivial["is_trivial"]
        assert abs(complex(trivial["value"]["re"], trivial["value"]["im"])) < 1e-8
        value = complex(unit["value"]["re"], unit["value"]["im"])
        target = profile1.pair_overlap_integral()
        assert abs(value - target) <= 0.01 * abs(target)
        assert not unit["is_trivial"]
        _announce("07", "commutator triviality decided by the zero-momentum "
                        "density difference; unit difference gives the overlap constant")

    def test_08_l2_regime_bisection(self, reports):
        entry = reports["criterion_08_l2_bisection"]
        res = entry["report"].results[0]
        alpha_star = res["alpha_bisection"]["alpha_star"]
        assert 0.5 < alpha_star <= 0.75
        assert alpha_star == pytest.approx(1.0 - 0.75 / 2.0, abs=0.05)
        sweep = _sweep(entry["report"], 2)
        assert sweep["verdict"] == "finite-nonzero"
        _announce("08", f"square-integrable regime: bisected alpha* = {alpha_star:.3f} "
                        "in (n/2, 3n/4], equals n - beta/2 within 0.05")

    def test_09_weighted_clustering(self, reports):
        entry = reports["criterion_09a_weighted_boundary"]
        res = entry["report"].results[0]
        assert res["gamma"] == pytest.approx((1.0 + 0.5) / 2.0)
        sweep2 = _sweep(entry["report"], 2)
        assert sweep2["exponent"] == pytest.approx(0.0, abs=0.05)
        assert sweep2["verdict"] == "finite-nonzero"
        sweep3 = _sweep(entry["report"], 3)
        assert sweep3["exponent"] == pytest.approx(0.0, abs=0.1)
        assert res["order_bounds"]["3"] == pytest.approx(1.25)
        vanish = reports["criterion_09b_weighted_vanishing"]
        sweep3v = _sweep(vanish["report"], 3)
        assert sweep3v["verdict"] == "vanishing"
        _announce("09", "weighted regime: gamma = (n+alpha_2)/2 renders the "
                        "2-point finite; order 3 marginal at the bound, vanishing below it")

    def test_09c_weighted_n3(self, reports):
        # n = 3, orders 2-4 from heat-kernel tables: each exponent is
        # l (n - gamma) - min(beta, (l - 1) n), and p = n at order 2 makes it 0
        entry = reports["criterion_09c_weighted_n3"]
        res = entry["report"].results[0]
        n = 3
        weights = {o["order"]: o for o in entry["config"].model_block["orders"]}
        assert res["gamma"] == pytest.approx((n + weights[2]["alpha"]) / 2.0)
        assert weights[2]["factor"]["power"] == n
        for order, spec in weights.items():
            beta = spec["factor"]["power"] - spec["alpha"]
            assert abs(beta - (order - 1) * n) >= 1.0, order  # away from the log R boundary
            target = order * (n - res["gamma"]) - min(beta, (order - 1) * n)
            assert _sweep(entry["report"], order)["exponent"] == pytest.approx(target, abs=0.1), order
        assert _sweep(entry["report"], 2)["verdict"] == "finite-nonzero"
        _announce("09c", "weighted regime at n = 3: orders 2-4 scale as "
                         "R^(l (n - gamma) - min(beta, (l-1) n)), order 2 finite at p = n")

    def test_09d_weighted_n2(self, reports):
        # n = 2, orders 2-6 from heat-kernel tables on the J_0 chain kernel:
        # alpha_l = 0 sets gamma = n/2, and p = 1.5 < n keeps beta below
        # (l - 1) n, so each order diverges as R^(l (n - gamma) - beta)
        entry = reports["criterion_09d_weighted_n2"]
        res = entry["report"].results[0]
        n = 2
        weights = {o["order"]: o for o in entry["config"].model_block["orders"]}
        assert sorted(weights) == [2, 3, 4, 5, 6]
        assert res["gamma"] == pytest.approx(n / 2.0)
        for order, spec in weights.items():
            beta = spec["factor"]["power"] - spec["alpha"]
            assert beta < n <= (order - 1) * n, order
            sweep = _sweep(entry["report"], order)
            assert sweep["verdict"] == "diverging", order
            assert sweep["exponent"] == pytest.approx(order * (n - res["gamma"]) - beta, abs=0.1), order
        _announce("09d", "weighted regime at n = 2: orders 2-6 diverge as R^(l (n - gamma) - beta)")

    def test_10_ssb_scaling(self, reports):
        entry = reports["criterion_10_ssb"]
        res = entry["report"].results[0]
        assert res["autocorrelation_A"]["exponent"] == pytest.approx(5.0, abs=0.1)
        assert res["double_commutator"]["exponent"] == pytest.approx(1.0, abs=0.1)
        assert all(row["holds"] for row in res["bogoliubov"])
        pair = res["canonical_pair"]
        assert pair["alpha_max"] == 0.5
        assert pair["q_growth_exponent"] > 1.0
        assert pair["verdict"] == "classical"
        _announce("10", "anomalous growth R^(n+2), double commutator R^(n-2), "
                        "Bogoliubov bound holds, super-linear generator growth is classical")

    def test_10_diverging_sweeps_report_no_limit(self, reports):
        # a diverging sweep has no limit to extrapolate; a number there would
        # be rounding noise of values ~1e14
        res = reports["criterion_10_ssb"]["report"].results[0]
        for key in ("autocorrelation_A", "autocorrelation_Q", "double_commutator"):
            assert res[key]["verdict"] == "diverging", key
            assert res[key]["limit_extrapolated"] is None, key
        payload = json.loads(reports["criterion_10_ssb"]["payload"])
        assert payload["results"][0]["autocorrelation_A"]["limit_extrapolated"] is None
        _announce("10", "diverging sweeps report a null extrapolated limit")

    @pytest.mark.parametrize("name", ["criterion_01_normal_scaling", "criterion_12a_high_order_n2"])
    def test_vanishing_sweeps_report_zero_limit(self, reports, name):
        # the Richardson residue of a vanishing sweep is cancellation noise
        # whose sign follows rounding; the report prints the limit 0 instead
        payload = json.loads(reports[name]["payload"])
        sweeps = [sweep for res in payload["results"] if res["kind"] == "scaling-sweep"
                  for sweep in res["sweeps"] if sweep["verdict"] == "vanishing"]
        assert sweeps
        for sweep in sweeps:
            assert sweep["limit_extrapolated"] == {"re": 0.0, "im": 0.0}, sweep["order"]

    def test_11_projector_and_gap(self, reports):
        entry = reports["criterion_11a_projector"]
        res = entry["report"].results[0]
        assert res["monotone_after_first"]
        assert res["envelope_bound_holds"]
        residuals = res["residuals"]
        r_values = residuals["r_values"]
        idx256 = r_values.index(256.0)
        r256 = abs(complex(residuals["values"][idx256]["re"], residuals["values"][idx256]["im"]))
        assert r256 < 1e-6
        gapped = reports["criterion_11b_gapped"]["report"].results[0]
        assert all(e["magnitude"] < 1e-8 for e in gapped["estimates"])
        gapless = reports["criterion_11c_gapless"]["report"].results[0]
        assert all(e["magnitude"] > 0.1 for e in gapless["estimates"])
        assert gapless["shape_relative_variation"] < 0.01
        _announce("11", "translation-average residual monotone and < 1e-6 by R=256; "
                        "gap kills the order parameter, gapless value is shape-independent")

    @pytest.mark.parametrize("name,dim,orders", [("criterion_12a_high_order_n2", 2, range(2, 9)),
                                                  ("criterion_12b_high_order_n3", 3, range(2, 7))])
    def test_12ab_high_order_exponents(self, reports, name, dim, orders):
        entry = reports[name]
        for order in orders:
            sweep = _sweep(entry["report"], order)
            target = (2 - order) * dim / 2
            assert sweep["exponent"] == pytest.approx(target, abs=0.1), f"order {order}"
            assert sweep["verdict"] == ("finite-nonzero" if order == 2 else "vanishing"), f"order {order}"
        _announce(name.split("_")[1], f"n = {dim}: truncated correlators scale as R^((2-l)n/2) "
                                   f"for l = 2..{max(orders)} on the radial chain")

    def test_12_determinism(self, reports, cache_dir):
        for name, entry in reports.items():
            rep2 = run(entry["config"], cache_dir=cache_dir)
            assert canonical_json(rep2.payload()) == entry["payload"], name
        _announce("12", f"all {len(reports)} configurations re-run to "
                        "byte-identical reports")

    def test_csv_rows_equal_the_json_sweeps(self, reports, tmp_path):
        # every CSV row's re, im and abs are the JSON report's sweep value, by
        # repr; the cumulant, limit-state and gap-check configs have no sweep
        unswept = set()
        for name, entry in reports.items():
            expected = {}
            for idx, result in enumerate(json.loads(entry["payload"])["results"]):
                for sweep in _json_sweeps(result):
                    for r, v in zip(sweep["r_values"], sweep["values"]):
                        key = (f"{idx}:{result['kind']}", sweep.get("label", "correlator"), repr(r))
                        assert key not in expected, (name, key)
                        expected[key] = [repr(v["re"]), repr(v["im"]), repr(abs(complex(v["re"], v["im"])))]
            [path] = emit(entry["report"], tmp_path, name, ("csv",))
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == len(expected), name
            for row in rows:
                key = (row["analysis"], row["label"], row["r"])
                assert [row["re"], row["im"], row["abs"]] == expected[key], (name, key)
            if not rows:
                unswept.add(name)
        assert unswept == {"criterion_05_cumulants", "criterion_06_weyl_ccr", "criterion_07_commutator",
                           "criterion_11b_gapped", "criterion_11c_gapless"}
