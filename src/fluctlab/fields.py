"""Typed JSON fields of the run configuration.

A type converts one JSON value: it checks the JSON type, rejects non-finite
numbers and out-of-range integers, raises ConfigError naming the path, and
describes itself for the schema.  A block declares {key: (type, default)};
a default is a raw JSON value resolved through the same type, or REQUIRED,
or OPTIONAL (an absent key stays absent).

A DENSITY block resolves to a spectral density of the radius |k|
(``density_from``), the form every momentum density of ``fluctlab.models``
takes at every dimension.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


class _Marker(str):
    """A default that is no value; compared by identity, shown by name in the schema."""


REQUIRED = _Marker("required")
OPTIONAL = _Marker("optional")


def check_keys(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _fail(where: str, what, value):
    raise ConfigError(f"{where} must be {what}, got {value!r}")


@dataclass(frozen=True)
class Num:
    """A finite JSON number, as float; > 0 if ``positive``, null allowed if ``nullable``."""

    positive: bool = False
    nullable: bool = False

    def __call__(self, value, where):
        if value is None and self.nullable:
            return None
        # ints compare exactly, so this also rejects ints beyond the float range
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not -sys.float_info.max <= value <= sys.float_info.max
                or (self.positive and value <= 0)):
            _fail(where, "a " + self.schema(), value)
        return float(value)

    def schema(self):
        what = "finite number > 0" if self.positive else "finite number"
        return what + " or null" if self.nullable else what


@dataclass(frozen=True)
class Int:
    """A JSON integer in lo..hi."""

    lo: int
    hi: int

    def __call__(self, value, where):
        if isinstance(value, bool) or not isinstance(value, int) or not self.lo <= value <= self.hi:
            _fail(where, "an " + self.schema(), value)
        return value

    def schema(self):
        return f"int in {self.lo}..{self.hi}"


@dataclass(frozen=True)
class Str:
    """A JSON string, one of ``options`` when given."""

    options: tuple = ()

    def __call__(self, value, where):
        if not isinstance(value, str) or (self.options and value not in self.options):
            _fail(where, f"one of {list(self.options)}" if self.options else "a string", value)
        return value

    def schema(self):
        return list(self.options) or "str"


@dataclass(frozen=True)
class Arr:
    """A JSON array: of ``item`` values, or one value per type when ``item`` is a tuple."""

    item: object

    def __call__(self, value, where):
        kinds = self.item if isinstance(self.item, tuple) else None
        if not isinstance(value, list) or (kinds and len(value) != len(kinds)):
            _fail(where, f"an array of {len(kinds)}" if kinds else "an array", value)
        kinds = kinds or [self.item] * len(value)
        return [k(v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value))]

    def schema(self):
        return [k.schema() for k in (self.item if isinstance(self.item, tuple) else (self.item,))]


@dataclass(frozen=True)
class MapOf:
    """A JSON object with free keys checked by ``key`` (digit strings as ints)."""

    key: object
    item: object

    def __call__(self, value, where):
        if not isinstance(value, dict):
            _fail(where, "an object", value)
        return {self.key(int(k) if k.isascii() and k.isdigit() else k, f"{where} key {k!r}"):
                self.item(v, f"{where}.{k}") for k, v in value.items()}

    def schema(self):
        return {f"<{self.key.schema()}>": self.item.schema()}


@dataclass(frozen=True, eq=False)
class Obj:
    """A JSON object with declared keys {key: (type, default)}."""

    fields: dict

    def __call__(self, value, where):
        if not isinstance(value, dict):
            _fail(where, "an object", value)
        check_keys(value, self.fields, where)
        out = {}
        for key, (kind, default) in self.fields.items():
            if key in value:
                out[key] = kind(value[key], f"{where}.{key}")
            elif default is REQUIRED:
                raise ConfigError(f"{where}.{key} is required")
            elif default is not OPTIONAL:
                out[key] = kind(default, f"{where}.{key}")
        return out

    def schema(self):
        return {key: kind.schema() for key, (kind, _) in self.fields.items()}

    def defaults(self):
        return {key: kind.defaults() if isinstance(kind, Obj) else default
                for key, (kind, default) in self.fields.items()}


#: (amplitude + i amplitude_im) exp(-width^2 k^2 / 2) (gaussian) or / (1 + width^2 k^2)
DENSITY = Obj({"form": (Str(("gaussian", "lorentzian")), REQUIRED), "amplitude": (Num(), 1.0),
               "amplitude_im": (Num(), 0.0), "width": (Num(), 1.0)})


def density_from(spec: dict):
    """The density callable of a resolved DENSITY block, a function of the radius |k|."""
    amp = complex(spec["amplitude"], spec["amplitude_im"])
    width2 = spec["width"] ** 2  # formed here, so a width whose square overflows fails at once
    gaussian = spec["form"] == "gaussian"

    def density(r):
        with np.errstate(over="ignore"):  # at r^2 = inf, exp(-inf) = 0 and amp / inf = 0 are exact
            r2 = np.asarray(r, dtype=float) ** 2
            if not width2:  # the constant, also where width^2 r^2 would be 0 * inf
                return amp * np.ones_like(r2)
            return amp * np.exp(-width2 * r2 / 2.0) if gaussian else amp / (1.0 + width2 * r2)

    return density
