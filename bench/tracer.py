"""Span tracing of frwave's public functions, installed from the benchmark.

`Tracer.install` wraps each function named in SPANS and rebinds the wrapper
at every place the original is bound: its home module, every `from ...
import` copy in the other frwave modules, and the `frwave` package namespace.
Modules are looked up by name in sys.modules because `frwave.frft` as an
attribute is the re-exported function, not the module. After installing it
checks that no original is left bound anywhere in frwave or in the
benchmark's own modules, so a call cannot bypass its span.

Each span records name, start, end, parent span and op id. Spans stay in
memory and are written out by `write` when the run ends. Self time is a
span's duration minus the time its child spans cover, and minus the time
the tracer spent computing counts inside it. Untraced runs never construct
a Tracer, so they run the library unwrapped.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from pathlib import Path

import numpy as np

import oracles

SPANS = {
    "grids": ("sample_at",),
    "frft": ("frft", "frft_eval"),
    "wavelets": ("make_mother", "atom_continuous", "admissibility_constant"),
    "riesz": ("spectrum_on_grid", "translate_gram", "dual_scaling",
              "check_biorthogonal", "periodization_gram", "biortho_profile"),
    "mra": ("level_atom", "project", "two_scale_apply"),
    "banks": ("spectral_scaling",),
    "biortho": ("expand_reconstruct", "riesz_frame_bounds", "level_split_defect",
                "cross_orthogonality_check", "decay_check"),
    "report": ("dumps_deterministic",),
    "cli": ("main",),
}


def _sample_at(a):
    signal = a["signal"]
    idx = (np.asarray(a["points"], dtype=np.float64) - signal.t0) / signal.dt
    sinc = int(np.count_nonzero(np.abs(idx - np.rint(idx)) > oracles.HIT_TOL))
    return {"hit_points": idx.size - sinc, "sinc_points": sinc, "sinc_ops": sinc * signal.n}


def _spectral_scaling(a):
    # frequency count of the truncated-product quadrature, as the function documents it
    t0, dt, count = a["grid"]
    dw = math.pi / max(dt * (count - 1), 1.0)
    m = 2 * int(math.ceil(a["w_max"] / dw)) + 1
    return {"ops": m * (a["levels"] * len(a["taps"]) + count)}


def _expand_reconstruct(a):
    (j0, j1), (k0, k1) = a["j_range"], a["k_range"]
    atoms = (j1 - j0 + 1) * (k1 - k0 + 1)
    return {"atom_bytes": 2 * atoms * a["f"].n * 16}   # two complex128 matrices


# computed work counts, from each call's arguments
COUNTERS = {
    ("grids", "sample_at"): _sample_at,
    ("frft", "frft"): lambda a: {"samples": a["f"].n},
    ("frft", "frft_eval"): lambda a: {"ops": a["f"].n * int(np.size(a["u_points"]))},
    ("riesz", "spectrum_on_grid"): lambda a: {"czt_len": a["f"].n + a["m"] - 1},
    ("riesz", "translate_gram"): lambda a: {"atoms": 2 * (2 * a["n_gram"] + 1)},
    ("banks", "spectral_scaling"): _spectral_scaling,
    ("biortho", "expand_reconstruct"): _expand_reconstruct,
}

# the per-layer metrics reported by a traced run: (name, unit). Self time
# is given as a share of all traced self time (`self_pct`): a function a
# workload never calls has a self time of exactly 0.0 s on every run, and a
# time metric must vary between runs. grids.sample_at runs in every
# workload, so its self time is also given in seconds; the traced run
# prints every function's self time in seconds.
PER_LAYER = [
    ("grids.sample_at.calls", "count"), ("grids.sample_at.self_s", "s"),
    ("grids.sample_at.hit_points", "count"), ("grids.sample_at.sinc_points", "count"),
    ("grids.sample_at.sinc_ops", "count"),
    ("frft.frft.calls", "count"), ("frft.frft.self_pct", "%"), ("frft.frft.samples", "count"),
    ("frft.frft_eval.calls", "count"), ("frft.frft_eval.self_pct", "%"),
    ("frft.frft_eval.ops", "count"),
    ("wavelets.make_mother.self_pct", "%"), ("wavelets.atom_continuous.calls", "count"),
    ("wavelets.atom_continuous.self_pct", "%"), ("wavelets.admissibility_constant.self_pct", "%"),
    ("riesz.spectrum_on_grid.calls", "count"), ("riesz.spectrum_on_grid.self_pct", "%"),
    ("riesz.spectrum_on_grid.czt_len", "count"),
    ("riesz.translate_gram.calls", "count"), ("riesz.translate_gram.self_pct", "%"),
    ("riesz.translate_gram.atoms", "count"),
    ("riesz.dual_scaling.self_pct", "%"), ("riesz.check_biorthogonal.self_pct", "%"),
    ("riesz.periodization_gram.self_pct", "%"), ("riesz.biortho_profile.self_pct", "%"),
    ("mra.level_atom.calls", "count"), ("mra.level_atom.self_pct", "%"),
    ("mra.project.calls", "count"), ("mra.project.self_pct", "%"),
    ("mra.two_scale_apply.self_pct", "%"),
    ("banks.spectral_scaling.calls", "count"), ("banks.spectral_scaling.self_pct", "%"),
    ("banks.spectral_scaling.ops", "count"),
    ("biortho.expand_reconstruct.calls", "count"), ("biortho.expand_reconstruct.self_pct", "%"),
    ("biortho.expand_reconstruct.atom_bytes", "B"),
    ("biortho.riesz_frame_bounds.self_pct", "%"), ("biortho.level_split_defect.self_pct", "%"),
    ("biortho.cross_orthogonality_check.self_pct", "%"), ("biortho.decay_check.self_pct", "%"),
    ("report.dumps_deterministic.self_pct", "%"),
    ("cli.main.self_pct", "%"),
] + [(f"{mod}.errors", "count") for mod in SPANS] + [("trace.overhead_s", "s")]


class Tracer:
    def __init__(self, frwave_error: type):
        self.error_type = frwave_error
        self.names: list[str] = []         # span name per function index
        self.spans: list[tuple] = []       # (fn index, start, end, parent id, op id)
        self.stack: list[int] = []
        self.aux: dict[int, float] = {}    # tracer time spent inside a span
        self.counts: dict[str, float] = {}
        self.errors = {mod: 0 for mod in SPANS}
        self._seen_errors: dict[str, set] = {mod: set() for mod in SPANS}
        self.op_id = 0
        self.bindings: list[tuple] = []    # (module, attribute, original)
        self.originals: dict[int, str] = {}

    # ---------------------------------------------------------------- install

    def install(self, roots=()) -> None:
        """Wrap every function in SPANS at every binding and verify coverage.

        `roots` are extra directories whose loaded modules must not hold an
        unwrapped original either (the benchmark's own files).
        """
        homes = {mod: importlib.import_module(f"frwave.{mod}") for mod in SPANS}
        modules = self._scanned_modules(roots)
        for mod_name, fn_names in SPANS.items():
            home = homes[mod_name]
            for fn_name in fn_names:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(mod_name, fn_name, orig)
                self.originals[id(orig)] = f"{mod_name}.{fn_name}"
                bound = 0
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self.bindings.append((mod, attr, orig))
                            bound += 1
                if getattr(home, fn_name) is not wrapper or bound == 0:
                    raise RuntimeError(f"could not wrap {mod_name}.{fn_name}")
        self.verify(roots)

    def verify(self, roots=()) -> None:
        """Raise if any scanned module still binds an unwrapped original."""
        for mod in self._scanned_modules(roots):
            for attr, val in vars(mod).items():
                if id(val) in self.originals:
                    raise RuntimeError(
                        f"{mod.__name__}.{attr} still binds the unwrapped "
                        f"{self.originals[id(val)]}")

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.bindings):
            setattr(mod, attr, orig)
        self.bindings.clear()

    @staticmethod
    def _scanned_modules(roots):
        out = []
        dirs = [Path(r).resolve() for r in roots]
        for name, mod in list(sys.modules.items()):
            if mod is None:
                continue
            if name == "frwave" or name.startswith("frwave."):
                out.append(mod)
                continue
            path = getattr(mod, "__file__", None)
            if path and any(Path(path).resolve().is_relative_to(d) for d in dirs):
                out.append(mod)
        return out

    def _wrap(self, mod_name, fn_name, orig):
        idx = len(self.names)
        self.names.append(f"{mod_name}.{fn_name}")
        counter = COUNTERS.get((mod_name, fn_name))
        signature = inspect.signature(orig)
        spans, stack, aux = self.spans, self.stack, self.aux
        clock = time.perf_counter
        error_type, seen = self.error_type, self._seen_errors[mod_name]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return orig(*args, **kwargs)
            except error_type as exc:
                if id(exc) not in seen:     # count each error once per module
                    seen.add(id(exc))
                    self.errors[mod_name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, start, end, parent, self.op_id)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, val in counter(bound.arguments).items():
                        name = f"{mod_name}.{fn_name}.{key}"
                        self.counts[name] = self.counts.get(name, 0) + val
                if parent >= 0:
                    aux[parent] = aux.get(parent, 0.0) + (clock() - end)

        wrapper.__wrapped__ = orig
        wrapper.__name__ = orig.__name__
        wrapper.__doc__ = orig.__doc__
        return wrapper

    # ---------------------------------------------------------------- results

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus children and tracer bookkeeping."""
        n = len(self.spans)
        dur = np.empty(n)
        child = np.zeros(n)
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            dur[sid] = end - start
            if parent >= 0:
                child[parent] += end - start
        for sid, t in self.aux.items():
            child[sid] += t
        return dur - child

    def aggregate(self) -> dict:
        """calls, self_s and self_pct per span name, plus computed counts and errors."""
        selfs = self.self_times()
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for sid, span in enumerate(self.spans):
            name = self.names[span[0]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += float(selfs[sid])
        whole = float(selfs.sum()) or 1.0
        for name in self.names:
            out[f"{name}.self_pct"] = 100.0 * out[f"{name}.self_s"] / whole
        out.update(self.counts)
        for mod, count in self.errors.items():
            out[f"{mod}.errors"] = count
        return out

    def shares(self, by_module: bool, skip_op: int | None = None) -> dict:
        """Share of traced self time per module or per function, largest first."""
        selfs = self.self_times()
        totals: dict[str, float] = {}
        for sid, span in enumerate(self.spans):
            if skip_op is not None and span[4] == skip_op:
                continue
            name = self.names[span[0]]
            key = name.split(".")[0] if by_module else name
            totals[key] = totals.get(key, 0.0) + float(selfs[sid])
        whole = sum(totals.values()) or 1.0
        return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}

    def write(self, path: Path) -> None:
        """All spans as CSV: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, (idx, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[idx]},{start:.9f},{end:.9f},{parent},{op}\n")
