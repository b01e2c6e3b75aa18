"""The benchmark's tracer wraps navsto attributes by name from outside the package.

perfbench/spans.py lists them in ``_WRAPPED`` and patches a few more on
ModeTable.  A refactor that renames or drops one of them would only show as
a crash of ``perfbench/run.py --trace 1``; these tests make it fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from navsto import dynamics, nonlinearity, spectral

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_attribute_resolves():
    spans = load_spans()
    missing = [(m, a) for m, a, _ in spans._WRAPPED
               if a not in vars(importlib.import_module(f"navsto.{m}"))]
    assert not missing
    assert "__init__" in vars(spectral.ModeTable)
    assert "pad_layout" in vars(spectral.ModeTable)
    assert isinstance(spectral.mode_table(2)._pad_cache, dict)


def test_patches_install_and_restore():
    spans = load_spans()
    originals = {(m, a): vars(importlib.import_module(f"navsto.{m}"))[a]
                 for m, a, _ in spans._WRAPPED}
    tracer = spans.Tracer()
    with spans.Patches(tracer):
        assert dynamics._run_chunk is not originals[("dynamics", "_run_chunk")]
        spectral.ModeTable(2).pad_layout(nonlinearity.dealias_grid(2))
    assert [s[0] for s in tracer.spans] == ["spectral.tables", "spectral.tables"]
    for (m, a), fn in originals.items():
        assert vars(importlib.import_module(f"navsto.{m}"))[a] is fn


def test_traced_engine_runs_record_noise_and_stepper_spans():
    # the engine looks its default noise source up per call: bound as a
    # default argument, it would escape the wrapper and noise.block would
    # read 0 in every traced run
    spans = load_spans()
    cfg = dynamics.SimConfig(n=2, dt=1e-4, t_end=3e-4, scheme="em", mode="cutoff", r=5.0,
                             alpha0=0.75, q0=1.0, seed=3)
    tracer = spans.Tracer()
    with spans.Patches(tracer):
        dynamics.run_ensemble(cfg, np.arange(3))
    names = [s[0] for s in tracer.spans]
    assert names.count("noise.block") == cfg.n_steps
    assert "dynamics.stepper" in names
    x = spectral.random_divfree_field(2, spectral.powerlaw_profile(3.0, 0.01), seed=4)
    w_inc = np.zeros((cfg.n_steps,) + x.coeffs.shape, dtype=np.complex128)
    tracer = spans.Tracer()
    with spans.Patches(tracer):
        dynamics.solve_controlled(x, w_inc, 5.0, cfg)
    # the replay's own span and the engine's chunk inside it
    assert [s[0] for s in tracer.spans].count("dynamics.stepper") == 2
