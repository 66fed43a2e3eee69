"""Correctness gate: each report against the paper's closed-form targets.

The tolerances are those of tests/test_acceptance.py.  Reports are checked as
parsed from the canonical JSON file that report.emit wrote, never against a
stored reference: later optimisations may legitimately move values at the
1e-7 level and move alpha*.  ``check(stem, model_block, report)`` returns a
list of failure messages, empty when every target is met.
"""

from __future__ import annotations

import math


def _c(d) -> complex:
    return complex(d["re"], d["im"])


def _near(value, target, tol) -> bool:
    return value is not None and abs(value - target) <= tol


def _sweep(result, order):
    for sweep in result["sweeps"]:
        if sweep["order"] == order:
            return sweep
    return None


def _exponents(result, targets, fails):
    """targets: {order: (exponent, tolerance)} for a scaling-sweep result."""
    for order, (target, tol) in targets.items():
        sweep = _sweep(result, order)
        got = None if sweep is None else sweep["exponent"]
        if not _near(got, target, tol):
            fails.append(f"order-{order} exponent {got} not within {tol} of {target}")


def _gaussian_density(spec):
    """Closed form of the config's Gaussian density S(q) = a exp(-w^2 q^2 / 2)."""
    amp = complex(spec.get("amplitude", 1.0), spec.get("amplitude_im", 0.0))
    width = float(spec.get("width", 1.0))
    return lambda q: amp * math.exp(-(width ** 2) * q ** 2 / 2.0)


def _qmode_limits(result, model_block, fails):
    density = _gaussian_density(model_block["two_point"])
    overlap = result["pair_overlap_integral"]
    for sweep in result["symmetric"]:
        s_q = density(sweep["q"])
        if abs(_c(sweep["two_point_at_q"]) - s_q) > 1e-12 * abs(s_q):
            fails.append(f"q={sweep['q']}: S(q) {sweep['two_point_at_q']} != closed form {s_q}")
        target = s_q * overlap
        if abs(_c(sweep["limit_value"]) - target) > 0.01 * abs(target):
            fails.append(f"q={sweep['q']}: limit {sweep['limit_value']} not within 1% of {target}")
    for sweep in result["net_offset_sweeps"]:
        if sweep["verdict"] != "vanishing":
            fails.append(f"net offset {sweep['label']}: verdict {sweep['verdict']}")


def _check_01(result, model_block, fails):
    _exponents(result, {2: (0.0, 0.05), 3: (-0.5, 0.1), 4: (-1.0, 0.1)}, fails)


def _check_n2(result, model_block, fails):
    # law R^((2-l) n / 2) at n = 2
    _exponents(result, {2: (0.0, 0.05), 3: (-1.0, 0.1)}, fails)


def _check_02(result, model_block, fails):
    if len(result["symmetric"]) != 1:
        fails.append("expected one symmetric sweep")
    _qmode_limits(result, model_block, fails)


def _check_03(result, model_block, fails):
    if len(result["symmetric"]) != 5:
        fails.append("expected five symmetric sweeps")
    if not result["net_offset_sweeps"]:
        fails.append("expected a net-offset sweep")
    _qmode_limits(result, model_block, fails)


def _check_04(result, model_block, fails):
    check = result["oracle_check"]
    orders = sorted({row["order"] for row in check["rows"]})
    radii = [row["radius"] for row in check["rows"]]
    if orders != [2, 3] or not radii or max(radii) > 8.0:
        fails.append(f"oracle rows cover orders {orders}, radii up to {max(radii, default=None)}")
    if not check["max_rel_deviation"] < 1e-6:
        fails.append(f"oracle max_rel_deviation {check['max_rel_deviation']} >= 1e-6")


def _check_05(result, model_block, fails):
    if not result["pairing_counts"]:
        fails.append("no pairing counts")
    if not result["max_roundtrip_rel_error"] < 1e-12:
        fails.append(f"cumulant round trip error {result['max_roundtrip_rel_error']}")
    if not result["max_gaussian_higher_cumulant"] < 1e-12:
        fails.append(f"Gaussian higher cumulant {result['max_gaussian_higher_cumulant']}")
    for m, counts in result["pairing_counts"].items():
        half = int(m) // 2
        closed = math.factorial(int(m)) // (2 ** half * math.factorial(half))
        if not counts["pairings"] == counts["expected"] == closed:
            fails.append(f"pairings of {m}: {counts} vs (2n)!/(2^n n!) = {closed}")


def _check_06(result, model_block, fails):
    if not result["weyl"] or not all(w["within_bound"] for w in result["weyl"]):
        fails.append("Weyl series outside its tail bound")
    if not result["ccr"] or not all(c["consistent"] for c in result["ccr"]):
        fails.append("CCR product check inconsistent")
    if not abs(result["state"]["symplectic_part"][0][1]) > 0:
        fails.append("symplectic part vanishes for a noncommuting pair")


def _check_07(result, model_block, fails):
    trivial, unit = result["commutators"]
    if not trivial["is_trivial"] or not abs(_c(trivial["value"])) < 1e-8:
        fails.append(f"equal densities give commutator {trivial['value']}")
    # unit density difference: the commutator equals the window pair overlap
    target = unit["plancherel_constant"]
    if unit["is_trivial"] or abs(_c(unit["value"]) - target) > 0.01 * abs(target):
        fails.append(f"unit difference gives {unit['value']}, overlap {target}")


def _check_08(result, model_block, fails):
    alpha_star = result["alpha_bisection"]["alpha_star"]
    # n - beta / 2 with n = 1, beta = 0.75
    if not (0.5 < alpha_star <= 0.75 and _near(alpha_star, 0.625, 0.05)):
        fails.append(f"alpha* {alpha_star} outside (0.5, 0.75] or not within 0.05 of 0.625")
    sweep = _sweep(result, 2)
    if sweep is None or sweep["verdict"] != "finite-nonzero":
        fails.append("order-2 sweep at alpha* is not finite-nonzero")


def _check_09a(result, model_block, fails):
    if not _near(result["gamma"], 0.75, 1e-12):
        fails.append(f"gamma {result['gamma']} != (n + alpha_2) / 2 = 0.75")
    _exponents(result, {2: (0.0, 0.05), 3: (0.0, 0.1)}, fails)
    sweep2 = _sweep(result, 2)
    if sweep2 is None or sweep2["verdict"] != "finite-nonzero":
        fails.append("order-2 weighted sweep is not finite-nonzero")
    if not _near(result["order_bounds"]["3"], 1.25, 1e-12):
        fails.append(f"order-3 bound {result['order_bounds']['3']} != 1.25")


def _check_10(result, model_block, fails):
    # growth R^(n+2) and double commutator R^(n-2) at n = 3
    if not _near(result["autocorrelation_A"]["exponent"], 5.0, 0.1):
        fails.append(f"autocorrelation exponent {result['autocorrelation_A']['exponent']} != 5")
    if not _near(result["double_commutator"]["exponent"], 1.0, 0.1):
        fails.append(f"double commutator exponent {result['double_commutator']['exponent']} != 1")
    if not result["bogoliubov"] or not all(row["holds"] for row in result["bogoliubov"]):
        fails.append("Bogoliubov inequality violated")
    pair = result["canonical_pair"]
    if not (pair["alpha_max"] == 0.5 and pair["q_growth_exponent"] > 1.0
            and pair["verdict"] == "classical"):
        fails.append(f"canonical pair {pair}")


def _check_11a(result, model_block, fails):
    if not (result["monotone_after_first"] and result["envelope_bound_holds"]):
        fails.append("projector residuals not monotone or above the envelope")
    residuals = result["residuals"]
    r256 = abs(_c(residuals["values"][residuals["r_values"].index(256.0)]))
    if not r256 < 1e-6:
        fails.append(f"projector residual {r256} at R = 256")


def _check_11b(result, model_block, fails):
    if not result["estimates"] or not all(e["magnitude"] < 1e-8 for e in result["estimates"]):
        fails.append("gapped model keeps a symmetry-breaking estimate")


def _check_11c(result, model_block, fails):
    if not result["estimates"] or not all(e["magnitude"] > 0.1 for e in result["estimates"]):
        fails.append("gapless estimate below 0.1")
    if not result["shape_relative_variation"] < 0.01:
        fails.append(f"shape variation {result['shape_relative_variation']}")


CHECKS = {
    "criterion_01_normal_scaling": _check_01,
    "bench_n2_product_ansatz": _check_n2,
    "criterion_02_limit_two_point": _check_02,
    "criterion_03_qmode": _check_03,
    "criterion_04_oracle": _check_04,
    "criterion_05_cumulants": _check_05,
    "criterion_06_weyl_ccr": _check_06,
    "criterion_07_commutator": _check_07,
    "criterion_08_l2_bisection": _check_08,
    "criterion_09a_weighted_boundary": _check_09a,
    "criterion_10_ssb": _check_10,
    "criterion_11a_projector": _check_11a,
    "criterion_11b_gapped": _check_11b,
    "criterion_11c_gapless": _check_11c,
}


def check(stem: str, model_block: dict, report: dict) -> list[str]:
    """Failure messages for one config's parsed report (empty when it passes)."""
    fails = []
    try:
        (result,) = report["results"]
        CHECKS[stem](result, model_block, fails)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        fails.append(f"malformed report: {exc!r}")
    return fails


def oracle_max_rel_dev(report: dict) -> float:
    """Largest oracle deviation in a parsed report (0.0 when it has no oracle check)."""
    worst = 0.0
    for result in report["results"]:
        if "oracle_check" in result:
            worst = max(worst, result["oracle_check"]["max_rel_deviation"])
    return worst
