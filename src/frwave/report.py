"""Run configuration and deterministic JSON analysis reports."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import InputError

DEFAULT_TOLERANCES = {
    "biortho": 2e-2,
    "matrix": 1e-6,
    "split": 1e-3,
    "tail": 5e-2,
}

# the least value each int field of RunConfig takes
_INT_LEAST = {"kmax": 1, "grid_count": 1, "n_gram": 0, "k_proj": 0,
              "seed": 0, "battery_size": 1}


@dataclass(frozen=True)
class RunConfig:
    alpha: float
    kmax: int = 64
    grid_count: int = 256
    n_gram: int = 8
    k_proj: int = 64
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    seed: int = 2026
    battery_size: int = 20

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise InputError(f"alpha must be finite, got {self.alpha!r}")
        for name, least in _INT_LEAST.items():
            val = getattr(self, name)
            if not (isinstance(val, int) and val >= least):
                raise InputError(f"{name} must be an integer >= {least}, got {val!r}")
        for name, val in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise InputError(f"unknown tolerance {name!r}; known: "
                                 f"{', '.join(DEFAULT_TOLERANCES)}")
            if not 0 < val < math.inf:
                raise InputError(f"tolerance {name!r} must be positive and finite")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tolerances"] = dict(sorted(self.tolerances.items()))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """A config from a to_dict document; absent keys keep the field defaults.

        Absent tolerances keep their defaults too. An unknown key is refused.
        """
        # int fields are taken as given: int() would read 1.5 as 1
        casts = {f.name: {"float": float, "dict": dict}.get(f.type, lambda v: v)
                 for f in fields(cls)}
        unknown = sorted(set(d) - set(casts))
        if unknown:
            raise InputError(f"unknown config key(s): {', '.join(unknown)}")
        try:
            kw = {name: casts[name](val) for name, val in d.items()}
            kw["tolerances"] = {**DEFAULT_TOLERANCES, **kw.get("tolerances", {})}
            return cls(**kw)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad run configuration: {exc}") from exc


@dataclass(frozen=True)
class Verdict:
    passed: bool
    value: float
    detail: str = ""


@dataclass
class AnalysisReport:
    command: str
    config: RunConfig
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def add(self, criterion: str, passed: bool, value: float, detail: str = "") -> None:
        if criterion in self.verdicts:
            raise ValueError(f"criterion {criterion!r} reported twice")
        self.verdicts[criterion] = Verdict(bool(passed), float(value), detail)

    @property
    def overall_pass(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "command": self.command,
            "config": self.config.to_dict(),
            "pass": self.overall_pass,
            "verdicts": {
                name: {"pass": v.passed, "value": v.value, "detail": v.detail}
                for name, v in sorted(self.verdicts.items())
            },
        }
        out.update(self.extras)
        if include_timings:
            out["timings"] = dict(sorted(self.timings.items()))
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return dumps_deterministic(self.to_dict(include_timings))


def _walk(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return {True: "Infinity", False: "-Infinity"}[obj > 0] \
                if not math.isnan(obj) else "NaN"
        return obj
    if isinstance(obj, complex):
        return {"re": _walk(obj.real), "im": _walk(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): _walk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walk(v) for v in obj]
    try:
        return _walk(float(obj))
    except (TypeError, ValueError):
        return str(obj)


def _ser(obj, indent: int) -> str:
    # json.dumps delegates float formatting to float.__repr__ (shortest
    # round-trip), so 17-significant-digit output needs its own printer
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}{json.dumps(str(k))}: {_ser(v, indent + 1)}'
                 for k, v in sorted(obj.items()))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = (f"{inner}{_ser(v, indent + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"unserializable {type(obj)!r}")


def dumps_deterministic(obj) -> str:
    """Stable JSON: sorted keys, LF newline, floats at 17 significant digits."""
    return _ser(_walk(obj), 0) + "\n"
