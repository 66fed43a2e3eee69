"""Dispatch of configured analyses into module computations."""

from __future__ import annotations

import time

import numpy as np

from .config import RunConfig, REPORT_SCHEMA_ID
from .errors import ConfigError
from .limit_algebra import (
    ObservableFamily,
    build_limit_state,
    ccr_product_check,
    commutator_criterion,
    weyl_expectation,
)
from .models import ObservablePair
from .partitions import (
    CumulantTable,
    bell_number,
    cumulants_from_moments,
    enumerate_pairings,
    enumerate_partitions,
    moments_from_cumulants,
    pairing_count,
    wick_moment_table,
)
from .report import RunReport
from .scaling import (
    ScalingConfig,
    exponent_sweep,
    find_critical_alpha,
    position_space_correlator,
    qmode_correlator,
    weighted_gamma,
)
from .ssb import (
    EnergySmoothing,
    GoldstoneModel,
    SpectralVectorModel,
    autocorrelation_growth,
    bogoliubov_check,
    canonical_pair_exponents,
    double_commutator_scaling,
    gap_conservation_check,
    mean_projector_convergence,
)


def run(config: RunConfig, cache_dir=None) -> RunReport:
    """Execute every configured analysis; deterministic for a fixed config."""
    t_start = time.perf_counter()
    window = config.build_window(cache_dir=cache_dir)
    model = config.build_model()
    results = []
    timings = {}
    for idx, spec in enumerate(config.analyses):
        t0 = time.perf_counter()
        handler = _HANDLERS[spec["kind"]]
        results.append(handler(spec, model, window, config))
        timings[f"analysis_{idx}_{spec['kind']}"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    return RunReport(
        schema=REPORT_SCHEMA_ID,
        config_echo=config.resolved(),
        results=tuple(results),
        timings=timings,
    )


def _scaling_cfg(spec: dict, config: RunConfig) -> ScalingConfig:
    return config.scaling_config(spec.get("numeric"))


def _run_scaling_sweep(spec, model, window, config):
    cfg = _scaling_cfg(spec, config)
    out = {"kind": "scaling-sweep", "sweeps": []}
    alpha = None

    if cfg.alpha_mode == "bisect":
        lo, hi = spec.get("bisect_bracket", [model.dim / 2.0 + 1e-3, 0.75 * model.dim])
        alpha_star = find_critical_alpha(model, window, cfg, float(lo), float(hi))
        out["alpha_bisection"] = {"alpha_star": alpha_star, "bracket": [float(lo), float(hi)]}
        alpha = alpha_star

    if cfg.alpha_mode == "gamma":
        gamma, bound = weighted_gamma(model.dim, model.weighted_orders[2].alpha)
        if cfg.alpha is not None:
            gamma = float(cfg.alpha)
        alpha = gamma
        out["gamma"] = gamma
        out["order_bounds"] = {str(o): bound.max_alpha(o) for o in spec["orders"]}

    for order in spec["orders"]:
        rep = exponent_sweep(model, window, cfg, order, alpha=alpha,
                             label=f"order-{order}")
        out["sweeps"].append(rep.as_dict())

    r_max = spec.get("oracle_check_r_max")
    if r_max is not None:
        out["oracle_check"] = _oracle_check(model, window, cfg, spec["orders"],
                                            float(r_max), alpha)
    return out


def _oracle_check(model, window, cfg, orders, r_max, alpha):
    radii = [r for r in cfg.r_values if r <= r_max] or [r_max]
    a = cfg.resolved_alpha(model.dim) if alpha is None else alpha
    rows = []
    worst = 0.0
    for order in orders:
        # computing the overlap is one matrix product per slice at any order;
        # its nodes**(order-1) output is what limits the oracle: order 4 on
        # the 600-node oracle rule already holds 600**3 doubles (1.7 GB), and
        # the orders skipped here would hold 600**4 (1 TB)
        if (order - 1) * model.dim > 3:
            continue
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


def _run_qmode(spec, model, window, config):
    cfg = _scaling_cfg(spec, config)
    order = int(spec["order"])
    out = {"kind": "qmode", "symmetric": [], "net_offset_sweeps": []}
    for q in spec["q_values"]:
        offsets = np.zeros((order, model.dim))
        offsets[0, 0] = q
        offsets[1, 0] = -q
        rep = exponent_sweep(model, window, cfg, order, offsets=offsets,
                             label=f"qmode-{q}")
        d = rep.as_dict()
        d["q"] = float(q)
        d["two_point_at_q"] = _complex_dict(model.two_point(_embed_q(q, model.dim)))
        out["symmetric"].append(d)
    for net in spec["net_offsets"]:
        offsets = np.zeros((order, model.dim))
        offsets[0, 0] = net[0]
        offsets[1, 0] = net[1]
        rep = exponent_sweep(model, window, cfg, order, offsets=offsets,
                             label=f"net-{net[0]}+{net[1]}")
        out["net_offset_sweeps"].append(rep.as_dict())
    out["pair_overlap_integral"] = window.pair_overlap_integral()
    return out


def _embed_q(q, dim):
    if dim == 1:
        return np.asarray([q])
    v = np.zeros((1, dim))
    v[0, 0] = q
    return v


def _complex_dict(z) -> dict:
    z = complex(np.asarray(z).reshape(-1)[0])
    return {"re": z.real, "im": z.imag}


def _run_cumulant_roundtrip(spec, model, window, config):
    order = int(spec["order"])
    seed = int(spec["seed"])
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
    counts = {str(m): {"pairings": len(enumerate_pairings(m)), "expected": pairing_count(m)}
              for m in spec["pairing_orders"]}
    bells = {str(l): {"partitions": len(enumerate_partitions(l)), "expected": bell_number(l)}
             for l in range(1, min(order, 8) + 1)}
    return {
        "kind": "cumulant-roundtrip",
        "order": order,
        "seed": seed,
        "max_roundtrip_rel_error": roundtrip_err,
        "max_gaussian_higher_cumulant": max(higher) if higher else 0.0,
        "pairing_counts": counts,
        "partition_counts": bells,
    }


def _run_limit_state(spec, model, window, config):
    if not isinstance(model, ObservableFamily):
        raise ConfigError("limit-state analysis needs a pair-family model")
    cfg = _scaling_cfg(spec, config)
    state = build_limit_state(model, window, cfg)
    out = {"kind": "limit-state", "state": state.as_dict(), "weyl": [], "ccr": [],
           "commutators": []}
    for label in spec.get("weyl_labels", list(state.labels)):
        check = weyl_expectation(state, label, int(spec["weyl_truncation"]))
        out["weyl"].append({
            "label": label,
            "partial_sum": _complex_dict(check.partial_sum),
            "closed_form": _complex_dict(check.closed_form),
            "tail_bound": check.tail_bound,
            "within_bound": check.within_bound,
        })
    if len(state.labels) >= 2:
        check = ccr_product_check(state, state.labels[0], state.labels[1],
                                  int(spec["ccr_truncation"]))
        out["ccr"].append({
            "labels": [state.labels[0], state.labels[1]],
            "series": _complex_dict(check.series),
            "closed_form": _complex_dict(check.closed_form),
            "discrepancy": check.discrepancy,
            "tail_bound": check.tail_bound,
            "consistent": check.consistent,
        })
    for pair_spec in spec["commutator_pairs"]:
        from .config import _density_from

        pair = ObservablePair(
            "A", "B",
            _density_from(pair_spec["f"], model.dim, "commutator_pairs.f"),
            _density_from(pair_spec["g"], model.dim, "commutator_pairs.g"),
        )
        res = commutator_criterion(pair, window, cfg.eps_vanish)
        out["commutators"].append({
            "value": _complex_dict(res.value),
            "is_trivial": res.is_trivial,
            "plancherel_constant": res.plancherel_constant,
        })
    return out


def _run_ssb_bound(spec, model, window, config):
    if not isinstance(model, GoldstoneModel):
        raise ConfigError("ssb-bound analysis needs a goldstone-ssb model")
    cfg = _scaling_cfg(spec, config)
    rep_a = autocorrelation_growth(model, window, cfg, "A")
    rep_q = autocorrelation_growth(model, window, cfg, "Q")
    rep_dc = double_commutator_scaling(model, window, cfg)
    table = []
    for radius in spec["bogoliubov_radii"]:
        check = bogoliubov_check(model, window, float(radius))
        table.append({"radius": check.radius, "lhs": check.lhs, "rhs": check.rhs,
                      "holds": check.holds})
    q_growth = rep_q.exponent if rep_q.exponent is not None else 0.0
    pair = canonical_pair_exponents(model.dim, q_growth)
    return {
        "kind": "ssb-bound",
        "autocorrelation_A": rep_a.as_dict(),
        "autocorrelation_Q": rep_q.as_dict(),
        "double_commutator": rep_dc.as_dict(),
        "bogoliubov": table,
        "canonical_pair": {"alpha_max": pair.alpha_max, "verdict": pair.verdict,
                           "q_growth_exponent": q_growth},
    }


def _run_projector(spec, model, window, config):
    if not isinstance(model, SpectralVectorModel):
        raise ConfigError("projector analysis needs a spectral-vector model")
    cfg = _scaling_cfg(spec, config)
    rep = mean_projector_convergence(model, window, cfg)
    mags = [abs(v) for v in rep.values]
    monotone = all(mags[i + 1] <= mags[i] + 1e-300 for i in range(1, len(mags) - 1))
    bound_ok = True
    f0 = window.fhat_zero()
    norm = model.noninvariant_norm()
    for radius, value in zip(rep.r_values, rep.values):
        env = max(abs(window.fourier_radial(radius * p)) / f0 for _, p, _ in model.samples)
        if abs(value) > env * norm * (1.0 + 1e-9):
            bound_ok = False
    return {
        "kind": "projector",
        "residuals": rep.as_dict(),
        "monotone_after_first": monotone,
        "envelope_bound_holds": bound_ok,
    }


def _run_gap_check(spec, model, window, config):
    if not isinstance(model, GoldstoneModel):
        raise ConfigError("gap-check analysis needs a goldstone-ssb model")
    radius = float(spec["radius"])
    half = float(spec["smoothing_half_support"])
    out = {"kind": "gap-check", "radius": radius, "estimates": []}
    for shape in spec["shapes"]:
        smoothing = EnergySmoothing(half, shape)
        res = gap_conservation_check(model, smoothing, window, radius)
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


_HANDLERS = {
    "scaling-sweep": _run_scaling_sweep,
    "qmode": _run_qmode,
    "cumulant-roundtrip": _run_cumulant_roundtrip,
    "limit-state": _run_limit_state,
    "ssb-bound": _run_ssb_bound,
    "projector": _run_projector,
    "gap-check": _run_gap_check,
}
