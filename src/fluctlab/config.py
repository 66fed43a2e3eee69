"""Run configuration: parsing, defaults, validation, schema.

Configs are JSON with four blocks (model, window, analyses, numeric) plus an
optional output block.  Every value goes through the typed fields of
``fluctlab.fields``: duplicate keys, unknown keys, wrong types, non-finite
numbers and out-of-range integers are errors.  Model classes are declared
once, in MODELS; analysis kinds once, in ``runner.ANALYSES``.  Parsing
builds the model and makes every check the analyses make short of
quadrature, so a configuration that parses also runs, unless a
window-transform tail certificate fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, FluctlabError, ModelValidationError
from .fields import (
    DENSITY,
    OPTIONAL,
    REQUIRED,
    Arr,
    Int,
    MapOf,
    Num,
    Obj,
    Str,
    check_keys,
    density_from,
)
from .limit_algebra import ObservableFamily
from .models import (
    MAX_ORDER,
    GaussianProfile,
    RadialWeight,
    WeightedCorrelator,
    gaussian_state,
    goldstone_state,
    powerlaw_state,
    product_ansatz_state,
    weighted_state,
)
from .report import FORMATS
from .runner import ANALYSES
from .scaling import ScalingConfig
from .ssb import Dispersion, GoldstoneModel, SpectralVectorModel
from .window import load_or_build

SCHEMA_ID = "fluctlab-config/1"

_TOP_KEYS = {"schema", "model", "window", "analyses", "numeric", "output"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration, with its model built."""

    model_block: dict  # the model block as given, dim filled
    window_block: dict
    analyses: tuple  # each analysis as given, declared defaults filled
    numeric_block: dict
    output_block: dict
    model: Any = field(repr=False)
    steps: tuple = field(repr=False)  # (kind, typed params, ScalingConfig) per analysis

    def resolved(self) -> dict:
        """Canonical echo of the configuration with all defaults filled."""
        return {
            "schema": SCHEMA_ID,
            "model": self.model_block,
            "window": self.window_block,
            "analyses": list(self.analyses),
            "numeric": self.numeric_block,
            "output": self.output_block,
        }

    def build_window(self, cache_dir=None):
        return load_or_build(self.window_block["dim"], cache_dir=cache_dir)


# ---------------------------------------------------------------------------
# model classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelClass:
    """One model class: its keys {key: (type, default)} and a builder of the typed block."""

    keys: dict
    build: Callable


def _product_ansatz(b):
    profiles = {order: [GaussianProfile(p["amplitude"], p["width"], b["dim"]) for p in plist]
                for order, plist in b["orders"].items()}
    return product_ansatz_state(profiles, b["dim"])


def _weighted(b):
    return weighted_state([WeightedCorrelator(o["order"], o["alpha"], o["factor"]["power"])
                           for o in b["orders"]], b["dim"])


def _goldstone_ssb(b):
    qa = b["rho_qa"]
    return GoldstoneModel(b["dim"], Dispersion(**b["dispersion"]), RadialWeight(**b["rho_a"]),
                          RadialWeight(**b["rho_q"]), complex(qa["re"], qa["im"]), qa["exponent"],
                          gap=b["gap"])


def _spectral_vector(b):
    if not b["samples"]:  # an invariant-only vector leaves the projector nothing to converge
        raise ConfigError("model.samples must hold at least one sample")
    return SpectralVectorModel(tuple((e, p, complex(a)) for e, p, a in b["samples"]),
                               complex(b["invariant_amplitude"]))


def _pair_family(b):
    labels = tuple(b["labels"])
    densities = {}
    for key, spec in b["pairs"].items():
        if len(key) != 2 or key[0] not in labels or key[1] not in labels:
            raise ConfigError(f"model.pairs key {key!r} must name two of the labels {list(labels)}")
        densities[labels.index(key[0]), labels.index(key[1])] = density_from(spec)
    return ObservableFamily(labels, lambda i, j: densities.get((i, j)), b["dim"])


def _radial_weight(amplitude: float, exponent: float):
    return Obj({"amplitude": (Num(), amplitude), "exponent": (Num(), exponent),
                "k_cut": (Num(positive=True), 4.0)}), {}


_ORDER = Int(2, MAX_ORDER)

MODELS = {
    "gaussian": ModelClass({"two_point": (DENSITY, REQUIRED)},
                           lambda b: gaussian_state(density_from(b["two_point"]), b["dim"])),
    "product-ansatz": ModelClass(
        {"orders": (MapOf(_ORDER, Arr(Obj({"amplitude": (Num(), 1.0), "width": (Num(), 1.0)}))),
                    REQUIRED)},
        _product_ansatz),
    "powerlaw": ModelClass({"beta": (Num(), REQUIRED)}, lambda b: powerlaw_state(b["beta"], b["dim"])),
    "weighted": ModelClass(
        {"orders": (Arr(Obj({"order": (_ORDER, REQUIRED), "alpha": (Num(), REQUIRED),
                             # the joint power (1 + sum |y_i|^2)^(-power/2) is the one factor form
                             "factor": (Obj({"form": (Str(("bessel-power",)), REQUIRED),
                                             "power": (Num(positive=True), REQUIRED)}),
                                        REQUIRED)})), REQUIRED)},
        _weighted),
    "goldstone-spectrum": ModelClass(
        {"c": (Num(), REQUIRED), "s": (Num(), 2.0), "uv_cutoff": (Num(positive=True), 4.0)},
        lambda b: goldstone_state(b["dim"], b["c"], b["s"], b["uv_cutoff"])),
    "goldstone-ssb": ModelClass(
        {"dispersion": (Obj({"kind": (Str(), "linear"), "speed": (Num(), 1.0)}), {}),
         "rho_a": _radial_weight(1.0, -2.0), "rho_q": _radial_weight(0.5, 1.0),
         "rho_qa": (Obj({"re": (Num(), 0.0), "im": (Num(), 0.25), "exponent": (Num(), 0.0)}), {}),
         "gap": (Num(), 0.0)},
        _goldstone_ssb),
    "spectral-vector": ModelClass(
        {"samples": (Arr(Arr((Num(), Num(), Num()))), REQUIRED), "invariant_amplitude": (Num(), 1.0)},
        _spectral_vector),
    "pair-family": ModelClass(
        {"labels": (Arr(Str()), REQUIRED), "pairs": (MapOf(Str(), DENSITY), REQUIRED)}, _pair_family),
}
_MODEL_COMMON = {"class": (Str(tuple(MODELS)), REQUIRED), "dim": (Int(1, 3), 1)}

# ---------------------------------------------------------------------------
# window, numeric and output blocks
# ---------------------------------------------------------------------------

# the mollified step is the one window kind
WINDOW = Obj({"kind": (Str(("mollified-step",)), "mollified-step"),
              "dim": (Int(1, 3), OPTIONAL)})  # default: the model's
NUMERIC = Obj({
    "r_grid": (Obj({"start": (Num(positive=True), 8.0), "stop": (Num(positive=True), 512.0),
                    "count": (Int(0, 4096), 8)}), {}),
    "eps_vanish": (Num(positive=True), 1e-8),
    # the renormalization exponent; null: the model's marginal one
    "alpha": (Num(nullable=True), None),
    # per dimension n: p_max, panels, nodes per panel, graded levels
    "quad": (MapOf(Int(1, 3),
                   Arr((Num(positive=True), Int(1, 4096), Int(2, 64), Int(0, 64)))), {}),
})
OUTPUT = Obj({"directory": (Str(), "fluctlab-out"), "basename": (Str(), "report"),
              "formats": (Arr(Str(FORMATS)), ["json"])})


def _scaling_config(nb: dict) -> ScalingConfig:
    grid = nb["r_grid"]
    # rounding scales by 1e10 first: a radius beyond 1.8e298 becomes inf,
    # which ScalingConfig.validate_r_grid rejects
    with np.errstate(over="ignore"):
        r = tuple(float(x) for x in np.geomspace(grid["start"], grid["stop"], grid["count"]).round(10))
    return ScalingConfig(r_values=r, alpha=nb["alpha"], eps_vanish=nb["eps_vanish"],
                         quad_overrides={k: tuple(v) for k, v in nb["quad"].items()})


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _no_duplicates(pairs):
    out = dict(pairs)
    if len(out) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ConfigError(f"duplicate key {key!r} in configuration")
    return out


def _no_constant(name):
    raise ConfigError(f"non-finite number {name} in configuration")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse, default-fill and check a JSON run configuration; builds the model.

    Raises ConfigError, or ModelValidationError for a model that fails its
    own validation, and nothing else.
    """
    try:
        return _parse(text)
    except (ConfigError, ModelValidationError):
        raise
    except FluctlabError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:  # finite parameters whose Python-float arithmetic overflows
        raise ConfigError(f"parameters out of range: {exc}") from exc


def _parse(text: str) -> RunConfig:
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicates, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    _object(raw, "configuration")
    check_keys(raw, _TOP_KEYS, "configuration")
    if raw.get("schema", SCHEMA_ID) != SCHEMA_ID:
        raise ConfigError(f"unsupported schema {raw.get('schema')!r}")

    model_raw = _object(raw.get("model", {}), "model")
    if "class" not in model_raw:
        raise ConfigError("model.class is required")
    cls = model_raw["class"]
    if not isinstance(cls, str) or cls not in MODELS:
        raise ConfigError(f"unknown model class {cls!r}")
    model_spec = Obj({**_MODEL_COMMON, **MODELS[cls].keys})(model_raw, "model")
    model = MODELS[cls].build(model_spec)
    dim = model_spec["dim"]

    window_block = WINDOW(raw.get("window", {}), "window")
    window_block.setdefault("dim", dim)
    if window_block["dim"] != dim:
        raise ConfigError("window dimension must match the model dimension")

    numeric_raw = _object(raw.get("numeric", {}), "numeric")
    numeric_block = NUMERIC(numeric_raw, "numeric")
    top = _scaling_config(numeric_block)

    analyses_raw = raw.get("analyses", [])
    if not isinstance(analyses_raw, list):
        raise ConfigError(f"analyses must be an array, got {analyses_raw!r}")
    echoes, steps = [], []
    for idx, spec in enumerate(analyses_raw):
        where = f"analyses[{idx}]"
        kind = _object(spec, where).get("kind")
        entry = ANALYSES.get(kind) if isinstance(kind, str) else None
        if entry is None:
            raise ConfigError(f"{where}: unknown kind {kind!r} (expected one of {tuple(ANALYSES)})")
        if entry.models and cls not in entry.models:
            raise ConfigError(f"analysis {kind!r} incompatible with model class {cls!r}")
        own = {k: v for k, v in spec.items() if k != "kind" and (k != "numeric" or not entry.numeric)}
        params = Obj(entry.keys)(own, where)
        override = _object(spec.get("numeric", {}), f"{where}.numeric")
        cfg = top
        if override:  # merged over the top-level block as given, then resolved once
            cfg = _scaling_config(NUMERIC({**numeric_raw, **override}, f"{where}.numeric"))
        if entry.numeric:
            cfg.validate_r_grid()
        if entry.check:
            entry.check(params, cfg, model, cls)
        steps.append((kind, params, cfg))
        echoes.append({**{k: d for k, (_, d) in entry.keys.items()
                          if d is not REQUIRED and d is not OPTIONAL}, **spec})

    return RunConfig(
        model_block={"dim": dim, **model_raw},
        window_block=window_block,
        analyses=tuple(echoes),
        numeric_block=numeric_block,
        output_block=OUTPUT(raw.get("output", {}), "output"),
        model=model,
        steps=tuple(steps),
    )


def config_schema() -> dict:
    """Machine-readable outline of the accepted configuration, from the registries."""
    def outline(keys):
        return {"keys": Obj(keys).schema(), "defaults": Obj(keys).defaults()}

    return {
        "schema": SCHEMA_ID,
        "model": {"class": list(MODELS), "dim": _MODEL_COMMON["dim"][0].schema(),
                  "classes": {name: outline(c.keys) for name, c in MODELS.items()}},
        "window": WINDOW.schema(),
        "analyses": [{"kind": list(ANALYSES), "kinds": {
            name: {**outline(a.keys), "models": list(a.models), "numeric": a.numeric}
            for name, a in ANALYSES.items()}}],
        "numeric": NUMERIC.schema(),
        "output": OUTPUT.schema(),
        "defaults": {"window": WINDOW.defaults(), "numeric": NUMERIC.defaults(),
                     "output": OUTPUT.defaults()},
    }
