"""The analysis kinds, each declared once in ANALYSES, and their dispatch.

``config.parse_config`` resolves and checks every configured analysis
through its entry; ``run`` calls the same entry's handler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigError
from .fields import DENSITY, OPTIONAL, REQUIRED, Arr, Int, Num, Obj, Str, density_from
from .limit_algebra import (
    build_limit_state,
    ccr_product_check,
    commutator_criterion,
    weyl_expectation,
)
from .models import MAX_ORDER, ObservablePair
from .partitions import (
    MAX_PAIRING_ORDER,
    MAX_PARTITION_ORDER,
    CumulantTable,
    _pairing_blocks,
    bell_number,
    cumulants_from_moments,
    enumerate_partitions,
    moments_from_cumulants,
    pairing_count,
    wick_moment_table,
)
from .report import REPORT_SCHEMA_ID, RunReport
from .scaling import (
    MAX_ARRAY_POINTS,
    ORACLE_Z,
    check_order,
    check_weighted_order,
    exponent_sweep,
    find_critical_alpha,
    l2_alpha_window,
    position_points,
    position_space_correlator,
    qmode_correlator,
    weighted_gamma,
)
from .ssb import (
    EnergySmoothing,
    autocorrelation_growth,
    bogoliubov_check,
    canonical_pair_exponents,
    check_radius,
    check_smoothing,
    double_commutator_scaling,
    gap_conservation_check,
    mean_projector_convergence,
)

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass(frozen=True)
class Analysis:
    """One analysis kind.

    ``handler(params, cfg, model, window)`` returns the result; ``params``
    are the typed keys, defaults filled, and ``cfg`` the ScalingConfig.
    ``check(params, cfg, model, model_class)``, when given, raises at parse
    time on what the handler would reject, computing nothing.
    """

    keys: dict  # {key: (type, default)}; filled defaults are echoed in the report
    models: tuple  # compatible model classes; empty for model-independent kinds
    handler: Callable
    check: Callable | None = None
    numeric: bool = True  # reads a ScalingConfig, R grid checked, "numeric" override allowed


def run(config: RunConfig, cache_dir=None) -> RunReport:
    """Execute every configured analysis; deterministic for a fixed config."""
    t_start = time.perf_counter()
    window = config.build_window(cache_dir=cache_dir)
    results = []
    timings = {}
    for idx, (kind, params, cfg) in enumerate(config.steps):
        t0 = time.perf_counter()
        results.append({"kind": kind, **ANALYSES[kind].handler(params, cfg, config.model, window)})
        timings[f"analysis_{idx}_{kind}"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    return RunReport(
        schema=REPORT_SCHEMA_ID,
        config_echo=config.resolved(),
        results=tuple(results),
        timings=timings,
    )


# ---------------------------------------------------------------------------
# scaling sweeps and q-modes
# ---------------------------------------------------------------------------

def _oracle_orders(orders):
    # the overlap's nodes**(order-1) output is what limits the oracle: order 4
    # on the 600-node oracle rule would hold 600**3 doubles (1.7 GB)
    return [order for order in orders if position_points(ORACLE_Z, order) <= MAX_ARRAY_POINTS]


def _check_scaling_sweep(params, cfg, model, model_class):
    weighted = getattr(model, "weighted_orders", {})
    if model_class == "weighted" and cfg.alpha_mode != "gamma":
        raise ConfigError("weighted models require alpha_mode 'gamma'")
    if cfg.alpha_mode == "gamma" and 2 not in weighted:
        raise ConfigError("alpha_mode 'gamma' needs a weighted model with an order-2 weight")
    window = l2_alpha_window(model.dim)
    if model_class == "powerlaw" and cfg.alpha_mode == "explicit" and (
            cfg.alpha is None or not window.contains(cfg.alpha)):
        raise ConfigError(f"alpha={cfg.alpha} outside the square-integrable window "
                          f"({window.lo_open}, {window.hi_closed}] for this model")
    if cfg.alpha_mode in ("canonical", "explicit"):
        cfg.resolved_alpha(model.dim)
    if cfg.alpha_mode == "bisect":
        check_order(model, cfg, 2)
    if weighted and model.dim != 1:
        raise ConfigError("weighted orders are computed for n = 1 only")
    for order in params["orders"]:
        if order in weighted:
            check_weighted_order(order)
        else:
            check_order(model, cfg, order)
    if "oracle_check_r_max" in params:
        if model.dim != 1:
            raise ConfigError("the position-space oracle is implemented for n = 1 only")
        for order in _oracle_orders(params["orders"]):
            model.order_factors(order)
            model.position_form(order)


def _run_scaling_sweep(params, cfg, model, window):
    out = {"sweeps": []}
    alpha = None

    if cfg.alpha_mode == "bisect":
        lo, hi = params.get("bisect_bracket", [model.dim / 2.0 + 1e-3, 0.75 * model.dim])
        alpha_star = find_critical_alpha(model, window, cfg, lo, hi)
        out["alpha_bisection"] = {"alpha_star": alpha_star, "bracket": [lo, hi]}
        alpha = alpha_star

    if cfg.alpha_mode == "gamma":
        gamma, bound = weighted_gamma(model.dim, model.weighted_orders[2].alpha)
        if cfg.alpha is not None:
            gamma = cfg.alpha
        alpha = gamma
        out["gamma"] = gamma
        out["order_bounds"] = {str(o): bound.max_alpha(o) for o in params["orders"]}

    for order in params["orders"]:
        rep = exponent_sweep(model, window, cfg, order, alpha=alpha,
                             label=f"order-{order}")
        out["sweeps"].append(rep.as_dict())

    r_max = params.get("oracle_check_r_max")
    if r_max is not None:
        out["oracle_check"] = _oracle_check(model, window, cfg, params["orders"], r_max, alpha)
    return out


def _oracle_check(model, window, cfg, orders, r_max, alpha):
    radii = [r for r in cfg.r_values if r <= r_max] or [r_max]
    a = cfg.resolved_alpha(model.dim) if alpha is None else alpha
    rows = []
    worst = 0.0
    for order in _oracle_orders(orders):
        for radius in radii:
            spectral = qmode_correlator(model, window, cfg, order, None, radius, a)
            oracle = position_space_correlator(model, window, cfg, order, radius, a)
            rel = abs(spectral - oracle) / max(abs(oracle), 1e-300)
            worst = max(worst, rel)
            rows.append({"order": order, "radius": radius,
                         "spectral": {"re": spectral.real, "im": spectral.imag},
                         "oracle": {"re": oracle.real, "im": oracle.imag},
                         "rel_deviation": rel})
    return {"rows": rows, "max_rel_deviation": worst}


def _check_qmode(params, cfg, model, model_class):
    check_order(model, cfg, params["order"], qmode=True)
    cfg.resolved_alpha(model.dim)


def _run_qmode(params, cfg, model, window):
    order = params["order"]
    out = {"symmetric": [], "net_offset_sweeps": []}
    for q in params["q_values"]:
        offsets = np.zeros((order, model.dim))
        offsets[0, 0] = q
        offsets[1, 0] = -q
        rep = exponent_sweep(model, window, cfg, order, offsets=offsets,
                             label=f"qmode-{q}")
        d = rep.as_dict()
        d["q"] = q
        d["two_point_at_q"] = _complex_dict(model.two_point(abs(q)))
        out["symmetric"].append(d)
    for net in params["net_offsets"]:
        offsets = np.zeros((order, model.dim))
        offsets[0, 0] = net[0]
        offsets[1, 0] = net[1]
        rep = exponent_sweep(model, window, cfg, order, offsets=offsets,
                             label=f"net-{net[0]}+{net[1]}")
        out["net_offset_sweeps"].append(rep.as_dict())
    out["pair_overlap_integral"] = window.pair_overlap_integral()
    return out


def _complex_dict(z) -> dict:
    z = complex(np.asarray(z).reshape(-1)[0])
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# combinatorics and the limit algebra
# ---------------------------------------------------------------------------

def _check_cumulant_roundtrip(params, cfg, model, model_class):
    odd = [m for m in params["pairing_orders"] if m % 2]
    if odd:
        raise ConfigError(f"pairing_orders must be even, got {odd}")


def _run_cumulant_roundtrip(params, cfg, model, window):
    order = params["order"]
    seed = params["seed"]
    rng = np.random.default_rng(seed)
    ct = CumulantTable(order)
    for key in ct.canonical_keys():
        if len(key) >= 2:
            ct[key] = complex(rng.standard_normal(), rng.standard_normal())
    mt = moments_from_cumulants(ct, order)
    back = cumulants_from_moments(mt, order)
    keys = [k for k in ct.canonical_keys() if len(k) >= 2]
    roundtrip_err = max(
        abs(back[k] - ct[k]) / max(abs(ct[k]), 1.0) for k in keys
    )
    pair_values = {}
    for i in range(1, order + 1):
        for j in range(i + 1, order + 1):
            pair_values[(i, j)] = complex(rng.standard_normal(), rng.standard_normal())
    wick = wick_moment_table(pair_values, order)
    gauss_cml = cumulants_from_moments(wick, order)
    higher = [abs(gauss_cml[k]) for k in keys if len(k) >= 3]
    # pairings and partitions are enumerated here only to be counted
    counts = {str(m): {"pairings": len(_pairing_blocks(m)), "expected": pairing_count(m)}
              for m in params["pairing_orders"]}
    bells = {str(l): {"partitions": len(enumerate_partitions(l)), "expected": bell_number(l)}
             for l in range(1, min(order, 8) + 1)}
    return {
        "order": order,
        "seed": seed,
        "max_roundtrip_rel_error": roundtrip_err,
        "max_gaussian_higher_cumulant": max(higher) if higher else 0.0,
        "pairing_counts": counts,
        "partition_counts": bells,
    }


def _check_limit_state(params, cfg, model, model_class):
    unknown = sorted(set(params.get("weyl_labels", ())) - set(model.labels))
    if unknown:
        raise ConfigError(f"weyl_labels {unknown} are not labels of the model {list(model.labels)}")
    cfg.resolved_alpha(model.dim)
    for pair_spec in params["commutator_pairs"]:
        density_from(pair_spec["f"])
        density_from(pair_spec["g"])


def _run_limit_state(params, cfg, model, window):
    state = build_limit_state(model, window, cfg)
    out = {"state": state.as_dict(), "weyl": [], "ccr": [], "commutators": []}
    for label in params.get("weyl_labels", list(state.labels)):
        check = weyl_expectation(state, label, params["weyl_truncation"])
        out["weyl"].append({
            "label": label,
            "partial_sum": _complex_dict(check.partial_sum),
            "closed_form": _complex_dict(check.closed_form),
            "tail_bound": check.tail_bound,
            "within_bound": check.within_bound,
        })
    if len(state.labels) >= 2:
        check = ccr_product_check(state, state.labels[0], state.labels[1],
                                  params["ccr_truncation"])
        out["ccr"].append({
            "labels": [state.labels[0], state.labels[1]],
            "series": _complex_dict(check.series),
            "closed_form": _complex_dict(check.closed_form),
            "discrepancy": check.discrepancy,
            "tail_bound": check.tail_bound,
            "consistent": check.consistent,
        })
    for pair_spec in params["commutator_pairs"]:
        pair = ObservablePair("A", "B", density_from(pair_spec["f"]), density_from(pair_spec["g"]))
        res = commutator_criterion(pair, window, cfg.eps_vanish)
        out["commutators"].append({
            "value": _complex_dict(res.value),
            "is_trivial": res.is_trivial,
            "plancherel_constant": res.plancherel_constant,
        })
    return out


# ---------------------------------------------------------------------------
# symmetry-breaking regime
# ---------------------------------------------------------------------------

def _check_ssb_bound(params, cfg, model, model_class):
    for radius in params["bogoliubov_radii"]:
        check_radius(model.dim, radius)


def _run_ssb_bound(params, cfg, model, window):
    rep_a = autocorrelation_growth(model, window, cfg, "A")
    rep_q = autocorrelation_growth(model, window, cfg, "Q")
    rep_dc = double_commutator_scaling(model, window, cfg)
    table = []
    for radius in params["bogoliubov_radii"]:
        check = bogoliubov_check(model, window, radius)
        table.append({"radius": check.radius, "lhs": check.lhs, "rhs": check.rhs,
                      "holds": check.holds})
    q_growth = rep_q.exponent if rep_q.exponent is not None else 0.0
    pair = canonical_pair_exponents(model.dim, q_growth)
    return {
        "autocorrelation_A": rep_a.as_dict(),
        "autocorrelation_Q": rep_q.as_dict(),
        "double_commutator": rep_dc.as_dict(),
        "bogoliubov": table,
        "canonical_pair": {"alpha_max": pair.alpha_max, "verdict": pair.verdict,
                           "q_growth_exponent": q_growth},
    }


def _run_projector(params, cfg, model, window):
    rep = mean_projector_convergence(model, window, cfg)
    mags = [abs(v) for v in rep.values]
    monotone = all(mags[i + 1] <= mags[i] + 1e-300 for i in range(1, len(mags) - 1))
    bound_ok = True
    f0 = window.fhat_zero()
    norm = model.noninvariant_norm()
    momenta = np.array([p for _, p, _ in model.samples])
    for radius, value in zip(rep.r_values, rep.values):
        env = np.max(np.abs(window.fourier_radial(radius * momenta)) / f0)
        if abs(value) > env * norm * (1.0 + 1e-9):
            bound_ok = False
    return {
        "residuals": rep.as_dict(),
        "monotone_after_first": monotone,
        "envelope_bound_holds": bound_ok,
    }


def _check_gap(params, cfg, model, model_class):
    check_radius(model.dim, params["radius"])
    for shape in params["shapes"]:
        check_smoothing(model, EnergySmoothing(params["smoothing_half_support"], shape))


def _run_gap_check(params, cfg, model, window):
    radius = params["radius"]
    half = params["smoothing_half_support"]
    out = {"radius": radius, "estimates": []}
    for shape in params["shapes"]:
        res = gap_conservation_check(model, EnergySmoothing(half, shape), window, radius)
        out["estimates"].append({
            "shape": shape,
            "half_support": half,
            "estimate": _complex_dict(res.estimate),
            "magnitude": res.magnitude,
        })
    mags = [e["magnitude"] for e in out["estimates"]]
    if len(mags) >= 2 and max(mags) > 0:
        out["shape_relative_variation"] = (max(mags) - min(mags)) / max(mags)
    else:
        out["shape_relative_variation"] = 0.0
    out["gap"] = model.gap
    return out


_SPECTRAL_MODELS = ("gaussian", "product-ansatz", "powerlaw", "goldstone-spectrum")
_ORDER = Int(2, MAX_ORDER)

ANALYSES = {
    "scaling-sweep": Analysis(
        {"orders": (Arr(_ORDER), [2]), "oracle_check_r_max": (Num(positive=True), OPTIONAL),
         "bisect_bracket": (Arr((Num(), Num())), OPTIONAL)},
        _SPECTRAL_MODELS + ("weighted",), _run_scaling_sweep, _check_scaling_sweep),
    "qmode": Analysis(
        {"order": (_ORDER, 2), "q_values": (Arr(Num()), [0.0]),
         "net_offsets": (Arr(Arr((Num(), Num()))), [])},
        _SPECTRAL_MODELS, _run_qmode, _check_qmode),
    "cumulant-roundtrip": Analysis(
        {"order": (Int(2, MAX_PARTITION_ORDER), 6), "seed": (Int(0, 2 ** 63 - 1), 1),
         "pairing_orders": (Arr(Int(2, MAX_PAIRING_ORDER)), [2, 4, 6, 8, 10, 12])},
        (), _run_cumulant_roundtrip, _check_cumulant_roundtrip, numeric=False),
    "limit-state": Analysis(
        {"weyl_truncation": (Int(0, 8), 8), "weyl_labels": (Arr(Str()), OPTIONAL),
         "ccr_truncation": (Int(0, 6), 5),
         "commutator_pairs": (Arr(Obj({"f": (DENSITY, REQUIRED), "g": (DENSITY, REQUIRED)})), [])},
        ("pair-family",), _run_limit_state, _check_limit_state),
    "ssb-bound": Analysis(
        {"bogoliubov_radii": (Arr(Num(positive=True)), [8.0, 16.0, 64.0, 256.0])},
        ("goldstone-ssb",), _run_ssb_bound, _check_ssb_bound),
    "projector": Analysis({}, ("spectral-vector",), _run_projector),
    "gap-check": Analysis(
        {"smoothing_half_support": (Num(), 0.4), "shapes": (Arr(Str()), ["plateau", "wide-plateau"]),
         "radius": (Num(positive=True), 512.0)},
        ("goldstone-ssb",), _run_gap_check, _check_gap, numeric=False),
}
