"""The analysis kinds, each declared once in ANALYSES, and their dispatch.

``config.parse_config`` resolves and checks every configured analysis
through its entry; ``run`` calls the same entry's handler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
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
    bell_number,
    count_pairings,
    count_partitions,
    cumulants_from_moments,
    moments_from_cumulants,
    pairing_count,
    wick_moment_table,
)
from .report import REPORT_SCHEMA_ID, RunReport, plain
from .scaling import (
    MAX_POSITION_ORDER,
    check_order,
    check_position,
    exponent_sweep,
    find_critical_alpha,
    l2_alpha_window,
    position_space_correlator,
    qmode_correlator,
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

    ``handler(params, cfg, model, window)`` returns the result, a dict of
    result records and plain values that ``run`` renders (``report.plain``);
    ``params`` are the typed keys, defaults filled, and ``cfg`` the ScalingConfig.
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
        results.append(plain({"kind": kind, **ANALYSES[kind].handler(params, cfg, config.model, window)}))
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
    # higher orders are swept without an oracle
    return [order for order in orders if order <= MAX_POSITION_ORDER]


def _check_scaling_sweep(params, cfg, model, model_class):
    bisect = "bisect_bracket" in params
    if not bisect:
        cfg.alpha_for(model)  # a weighted model without an order-2 weight needs alpha
    elif cfg.alpha is not None:
        raise ConfigError("bisect_bracket searches the exponent: it cannot go with numeric.alpha")
    window = l2_alpha_window(model.dim)
    if model_class == "powerlaw" and cfg.alpha is not None and not window.contains(cfg.alpha):
        raise ConfigError(f"alpha={cfg.alpha} outside the square-integrable window "
                          f"({window.lo_open}, {window.hi_closed}] for this model")
    for order in params["orders"] + ([2] if bisect else []):
        check_order(model, cfg, order)
    if "oracle_check_r_max" in params:
        orders = _oracle_orders(params["orders"])
        if not orders:
            raise ConfigError(f"oracle_check_r_max needs an order in 2..{MAX_POSITION_ORDER} to check")
        for order in orders:
            check_position(model.dim, order)
            model.position_form(order)


def _run_scaling_sweep(params, cfg, model, window):
    out = {"sweeps": []}
    if "bisect_bracket" in params:
        lo, hi = params["bisect_bracket"]
        alpha = find_critical_alpha(model, window, cfg, lo, hi)
        out["alpha_bisection"] = {"alpha_star": alpha, "bracket": [lo, hi]}
    else:
        alpha = cfg.alpha_for(model)
    if any(tag.kind == "weighted" for tag in model.tags.values()):
        # the weight exponent alpha_l at which each order's sweep is marginal
        out["gamma"] = alpha
        out["order_bounds"] = {str(o): o * alpha - model.dim for o in params["orders"]}

    for order in params["orders"]:
        out["sweeps"].append(exponent_sweep(model, window, cfg, order, alpha=alpha, label=f"order-{order}"))

    r_max = params.get("oracle_check_r_max")
    if r_max is not None:
        out["oracle_check"] = _oracle_check(model, window, cfg, params["orders"], r_max, alpha)
    return out


def _oracle_check(model, window, cfg, orders, r_max, alpha):
    radii = [r for r in cfg.r_values if r <= r_max] or [r_max]
    rows = []
    worst = 0.0
    for order in _oracle_orders(orders):
        for radius in radii:
            spectral = qmode_correlator(model, window, cfg, order, None, radius, alpha)
            oracle = position_space_correlator(model, window, cfg, order, radius, alpha)
            rel = abs(spectral - oracle) / max(abs(oracle), 1e-300)
            worst = max(worst, rel)
            rows.append({"order": order, "radius": radius, "spectral": spectral, "oracle": oracle,
                         "rel_deviation": rel})
    return {"rows": rows, "max_rel_deviation": worst}


def _check_qmode(params, cfg, model, model_class):
    check_order(model, cfg, params["order"], qmode=True)


def _run_qmode(params, cfg, model, window):
    order = params["order"]
    out = {"symmetric": [], "net_offset_sweeps": []}
    for q in params["q_values"]:
        offsets = np.zeros((order, model.dim))
        offsets[:2, 0] = q, -q
        rep = exponent_sweep(model, window, cfg, order, offsets=offsets, label=f"qmode-{q}")
        out["symmetric"].append(plain(rep) | {"q": q, "two_point_at_q": complex(model.two_point(abs(q)))})
    for a, b in params["net_offsets"]:
        offsets = np.zeros((order, model.dim))
        offsets[:2, 0] = a, b
        out["net_offset_sweeps"].append(
            exponent_sweep(model, window, cfg, order, offsets=offsets, label=f"net-{a}+{b}"))
    out["pair_overlap_integral"] = window.pair_overlap_integral()
    return out


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
    draw = lambda: complex(rng.standard_normal(), rng.standard_normal())
    keys = [k for k in CumulantTable(order).canonical_keys() if len(k) >= 2]
    ct = CumulantTable(order, {k: draw() for k in keys})
    back = cumulants_from_moments(moments_from_cumulants(ct, order), order)
    roundtrip_err = max(abs(back[k] - ct[k]) / max(abs(ct[k]), 1.0) for k in keys)
    pair_values = {k: draw() for k in combinations(range(1, order + 1), 2)}
    gauss_cml = cumulants_from_moments(wick_moment_table(pair_values, order), order)
    higher = [abs(gauss_cml[k]) for k in keys if len(k) >= 3]
    # the recursions the sums run, counted against the closed forms
    counts = {str(m): {"pairings": count_pairings(m), "expected": pairing_count(m)}
              for m in params["pairing_orders"]}
    bells = {str(l): {"partitions": count_partitions(l), "expected": bell_number(l)}
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
    for pair_spec in params["commutator_pairs"]:
        density_from(pair_spec["f"])
        density_from(pair_spec["g"])


def _run_limit_state(params, cfg, model, window):
    state = build_limit_state(model, window, cfg)
    parts = {"labels": state.labels, "covariance": state.covariance,
             "symmetric_part": state.symmetric_part, "symplectic_part": state.symplectic_part}
    out = {"state": parts, "weyl": [], "ccr": [], "commutators": []}
    for label in params.get("weyl_labels", list(state.labels)):
        out["weyl"].append(weyl_expectation(state, label, params["weyl_truncation"]))
    if len(state.labels) >= 2:
        out["ccr"].append(ccr_product_check(state, state.labels[0], state.labels[1], params["ccr_truncation"]))
    for pair_spec in params["commutator_pairs"]:
        pair = ObservablePair("A", "B", density_from(pair_spec["f"]), density_from(pair_spec["g"]))
        out["commutators"].append(commutator_criterion(pair, window, cfg.eps_vanish))
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
    return {
        "autocorrelation_A": rep_a,
        "autocorrelation_Q": rep_q,
        "double_commutator": double_commutator_scaling(model, window, cfg),
        "bogoliubov": [bogoliubov_check(model, window, radius) for radius in params["bogoliubov_radii"]],
        "canonical_pair": canonical_pair_exponents(model.dim, 0.0 if rep_q.exponent is None else rep_q.exponent),
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
        "residuals": rep,
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
    checks = [gap_conservation_check(model, EnergySmoothing(half, shape), window, radius)
              for shape in params["shapes"]]
    mags = [res.magnitude for res in checks]
    return {
        "radius": radius,
        "estimates": [{"shape": res.smoothing.shape, "half_support": half, "estimate": res.estimate,
                       "magnitude": res.magnitude} for res in checks],
        "shape_relative_variation": (max(mags) - min(mags)) / max(mags) if len(mags) >= 2 and max(mags) > 0 else 0.0,
        "gap": model.gap,
    }


#: the models whose orders all run on factors; the powerlaw's order 2 and the
#: weighted orders run on heat-kernel tables, which take no q-mode offsets
_SPECTRAL_MODELS = ("gaussian", "product-ansatz", "goldstone-spectrum")
_ORDER = Int(2, MAX_ORDER)

ANALYSES = {
    "scaling-sweep": Analysis(
        {"orders": (Arr(_ORDER), [2]), "oracle_check_r_max": (Num(positive=True), OPTIONAL),
         "bisect_bracket": (Arr((Num(), Num())), OPTIONAL)},
        _SPECTRAL_MODELS + ("powerlaw", "weighted"), _run_scaling_sweep, _check_scaling_sweep),
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
