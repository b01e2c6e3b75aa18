"""Span tracer that wraps navsto's layer entry points from outside the package.

Nothing under ``src/`` is edited: for the duration of a traced unit the
module attributes listed in ``_WRAPPED`` are replaced by timing wrappers and
``nonlinearity.sfft`` by a proxy whose ``irfftn``/``rfftn`` are timed.  Spans
are kept in memory as (name, parent, start, end) and turned into per-layer
self times (duration minus the time covered by direct child spans) at the
end.  Counters are recorded at the same boundaries from argument and result
shapes, so they are exact and independent of timing.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

#: (module name, attribute, span name); a module attribute is wrapped where
#: the caller looks it up, so a name imported into two modules appears twice
_WRAPPED = (
    ("dynamics", "b_self_batch", "nonlinearity.b_self_batch"),
    ("nonlinearity", "b_self_batch", "nonlinearity.b_self_batch"),
    ("dynamics", "b_linpair_batch", "nonlinearity.b_linpair_batch"),
    ("nonlinearity", "b_self_and_linpair", "nonlinearity.b_self_and_linpair"),
    ("nonlinearity", "b_batch", "nonlinearity.b_batch"),
    ("nonlinearity", "b_direct", "nonlinearity.b_direct"),
    ("nonlinearity", "_scatter_half", "nonlinearity.scatter"),
    ("nonlinearity", "_gather_half", "nonlinearity.gather"),
    ("nonlinearity", "_gather_half_scalar", "nonlinearity.gather"),
    ("nonlinearity", "_divergence_form_contract", "nonlinearity.contract"),
    ("nonlinearity", "leray_project", "nonlinearity.leray"),
    ("noise", "_mode_gaussians", "noise.gaussians"),
    ("noise", "_assemble", "noise.assemble"),
    ("dynamics", "_noise_block", "noise.block"),
    ("dynamics", "_norm_sq", "dynamics.norms"),
    ("dynamics", "pair_with", "dynamics.mphi"),
    ("dynamics", "chi_r_prime", "dynamics.chi_prime"),
    ("dynamics", "_run_chunk", "dynamics.stepper"),
    ("dynamics", "paired_full_cutoff", "dynamics.stepper"),
    ("dynamics", "_tangent_chunk", "dynamics.tangent"),
    ("dynamics", "_euler_drift", "dynamics.stepper"),
    ("dynamics", "build_control", "dynamics.stepper"),
    ("dynamics", "solve_controlled", "dynamics.stepper"),
    ("spectral", "random_divfree_field", "spectral.random_field"),
    ("spectral", "restrict_field", "spectral.restrict"),
    ("verifier", "richardson_bias", "verifier.stats"),
    ("verifier", "test_mp2_martingale", "verifier.stats"),
    ("verifier", "test_energy_supermartingale", "verifier.stats"),
    ("verifier", "test_doob", "verifier.stats"),
    ("verifier", "test_weak_strong", "verifier.stats"),
    ("verifier", "inequality_sweep", "verifier.stats"),
)

B_KERNELS = ("nonlinearity.b_self_batch", "nonlinearity.b_linpair_batch",
              "nonlinearity.b_self_and_linpair", "nonlinearity.b_batch")


class Tracer:
    """In-memory spans with parent links plus exact counters."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.last_s = 0.0                # duration of the span closed last
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = dict(fft_calls=0, fft_points=0, peak_call_bytes=0, noise_draws=0,
                           chip_evals=0, chip_active=0, verifier_checks=0)
        self.b_call_ms: dict[int, list[float]] = {}

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.last_s = span[3] - span[2]
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self, args, out)
            return out
        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self seconds per span name over spans[first:last]."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        out: dict[str, float] = {}
        for (name, _, t0, t1), c in zip(spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0) - c
        return out

    def inclusive(self, name: str, first: int = 0) -> float:
        """Summed duration of outermost spans called `name` over spans[first:]."""
        total = 0.0
        for i in range(first, len(self.spans)):
            sname, parent, t0, t1 = self.spans[i]
            if sname == name and (parent < first or self.spans[parent][0] != name):
                total += t1 - t0
        return total


class _FFTProxy:
    """Stands in for scipy.fft inside nonlinearity; times the two rfft calls."""

    def __init__(self, mod, tracer: Tracer):
        self._mod = mod
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._mod, name)

    def _timed(self, name, fn, x, kwargs):
        out = self._tracer.call(name, fn, (x,), kwargs)
        c = self._tracer.counts
        real = out if name == "nonlinearity.irfft" else x
        c["fft_calls"] += 1
        c["fft_points"] += int(real.size)
        c["peak_call_bytes"] = max(c["peak_call_bytes"], int(x.nbytes + out.nbytes))
        return out

    def irfftn(self, x, **kwargs):
        return self._timed("nonlinearity.irfft", self._mod.irfftn, x, kwargs)

    def rfftn(self, x, **kwargs):
        return self._timed("nonlinearity.rfft", self._mod.rfftn, x, kwargs)


def _count_draws(tracer, args, out):
    tracer.counts["noise_draws"] += int(out.shape[0])


def _count_chip(tracer, args, out):
    out = np.asarray(out)
    tracer.counts["chip_evals"] += int(out.size)
    tracer.counts["chip_active"] += int(np.count_nonzero(out))


def _record_b_call(tracer, args, out):
    if out.ndim == 2:  # batch-1 B(u, v) latency per resolution
        tracer.b_call_ms.setdefault(args[2].n, []).append(1e3 * tracer.last_s)


def _count_subtests(tracer, args, out):
    # banded sub-tests of a report, rows of a sweep, allowances of a pilot
    if hasattr(out, "bands"):
        n = len(out.bands)
    elif isinstance(out, tuple):
        n = len(out[0])
    else:
        n = sum(len(v) for v in out.values())
    tracer.counts["verifier_checks"] += n


_COUNTERS = {
    ("noise", "_mode_gaussians"): _count_draws,
    ("dynamics", "chi_r_prime"): _count_chip,
    ("nonlinearity", "b_batch"): _record_b_call,
    **{("verifier", attr): _count_subtests for mod, attr, span in _WRAPPED
       if span == "verifier.stats"},
}


class Patches:
    """Installs the wrappers on entry and restores every original on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def __enter__(self):
        for mod_name, attr, span in _WRAPPED:
            mod = importlib.import_module(f"navsto.{mod_name}")
            orig = getattr(mod, attr)
            self._set(mod, attr, self.tracer.wrap(span, orig, _COUNTERS.get((mod_name, attr))))
        from navsto import nonlinearity, spectral
        self._set(nonlinearity, "sfft", _FFTProxy(nonlinearity.sfft, self.tracer))
        table_cls = spectral.ModeTable
        self._set(table_cls, "__init__", self.tracer.wrap("spectral.tables", table_cls.__init__))
        pad = table_cls.pad_layout
        tracer = self.tracer

        def pad_layout(tab, grid):
            if grid in tab._pad_cache:  # cache hits stay in the caller's span
                return pad(tab, grid)
            return tracer.call("spectral.tables", pad, (tab, grid), {})
        self._set(table_cls, "pad_layout", pad_layout)
        return self

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False
