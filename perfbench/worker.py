"""One benchmark process: set up a workload, then optionally run timed units.

Started by run.py, never by hand.  ``--t0`` is the launcher's
``time.monotonic()`` taken just before the process was spawned, so the
reported set-up time covers interpreter start, imports, tables, pad layouts,
covariances and the warm-up call.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from navsto import nonlinearity  # noqa: E402

from spans import B_KERNELS, Patches, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the reported wall time is a median over units; a traced run needs one of each kind
MIN_UNITS = 2


def _cache_sizes() -> dict:
    """Data/unified cache sizes per level, read from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            kind = (idx / "type").read_text().strip()
            level = (idx / "level").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * mult
    return sizes


def _machine() -> dict:
    workers = nonlinearity.FFT_WORKERS
    return dict(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                numpy=np.__version__, scipy=scipy.__version__,
                fft_workers_setting=workers,
                fft_threads=os.cpu_count() if workers == -1 else workers,
                cache_bytes=_cache_sizes())


def _per_layer(tracer: Tracer, setup_end: int, units: list[dict]) -> dict:
    traced = [u for u in units if u["traced"]]
    n = len(traced)
    kps = sum(u["path_steps"] for u in traced) / 1000.0
    own = tracer.self_times(setup_end)
    setup = tracer.self_times(0, setup_end)

    def s(*names):
        return sum(own.get(k, 0.0) for k in names)

    wall_traced = float(np.median([u["wall_s"] for u in traced]))
    wall_plain = float(np.median([u["wall_s"] for u in units if not u["traced"]]))
    c = tracer.counts
    out = {
        "nonlinearity.scatter_s_per_kps": s("nonlinearity.scatter") / kps,
        "nonlinearity.irfft_s_per_kps": s("nonlinearity.irfft") / kps,
        "nonlinearity.products_s_per_kps": s(*B_KERNELS) / kps,
        "nonlinearity.rfft_s_per_kps": s("nonlinearity.rfft") / kps,
        "nonlinearity.gather_s_per_kps": s("nonlinearity.gather") / kps,
        "nonlinearity.contract_leray_s_per_kps":
            s("nonlinearity.contract", "nonlinearity.leray") / kps,
        "nonlinearity.oracle_s": s("nonlinearity.b_direct") / n,
        "nonlinearity.fft_calls": c["fft_calls"] / n,
        "nonlinearity.fft_points": c["fft_points"] / n,
        "nonlinearity.peak_call_bytes": c["peak_call_bytes"],
        "noise.gaussians_s_per_kps": s("noise.gaussians") / kps,
        "noise.assemble_s_per_kps": s("noise.assemble", "noise.block") / kps,
        "noise.draws": c["noise_draws"] / n,
        "dynamics.norms_s_per_kps": s("dynamics.norms") / kps,
        "dynamics.mphi_s_per_kps": s("dynamics.mphi") / kps,
        "dynamics.stepper_self_s_per_kps":
            s("dynamics.stepper", "dynamics.tangent", "dynamics.chi_prime") / kps,
        "dynamics.tangent_s_per_kps":
            tracer.inclusive("dynamics.tangent", setup_end) / kps,
        "dynamics.path_steps": kps * 1000.0 / n,
        "dynamics.blowups": sum(u["blown"] for u in traced),
        "dynamics.chip_active_share": c["chip_active"] / max(c["chip_evals"], 1),
        "spectral.tables_s": setup.get("spectral.tables", 0.0) + s("spectral.tables") / n,
        "spectral.random_field_s": s("spectral.random_field") / n,
        "spectral.restrict_s": s("spectral.restrict") / n,
        "verifier.stats_s": s("verifier.stats") / n,
        "verifier.checks": c["verifier_checks"] / n,
        "unattributed_share": s("unit") / sum(u["wall_s"] for u in traced),
        "trace_overhead_share": (wall_traced - wall_plain) / wall_plain,
    }
    for res in (8, 16, 32):
        ms = tracer.b_call_ms.get(res, [])
        out[f"nonlinearity.b_call_ms_p50.n{res}"] = float(np.percentile(ms, 50)) if ms else 0.0
        out[f"nonlinearity.b_call_ms_p90.n{res}"] = float(np.percentile(ms, 90)) if ms else 0.0
        out[f"nonlinearity.b_calls.n{res}"] = len(ms)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    def set_up():
        wl = WORKLOADS[args.workload](args.seed)
        wl.setup()
        return wl

    tracer = Tracer()
    if args.trace:
        with Patches(tracer):
            wl = set_up()
        tracer.reset_counts()
    else:
        wl = set_up()
    setup_s = time.monotonic() - args.t0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_end = len(tracer.spans)
    units = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with Patches(tracer):
                res = tracer.call("unit", wl.unit, (args.negative_control,), {})
        else:
            res = wl.unit(args.negative_control)
        wall = time.perf_counter() - t0
        units.append(dict(traced=traced, wall_s=wall, path_steps=res.path_steps,
                          b_evals=res.b_evals, b_seconds=res.b_seconds or wall,
                          paths=res.paths, blown=res.blown, digest=res.digest,
                          checks=res.checks, notes=res.notes))
        if len(units) >= MIN_UNITS and time.perf_counter() - start + wall > args.seconds:
            break

    out = dict(setup_s=setup_s, units=units,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               largest_array_bytes=wl.largest_array_bytes(), machine=_machine())
    if args.trace:
        out["per_layer"] = _per_layer(tracer, setup_end, units)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"fields": ["name", "parent", "start", "end"], "setup_spans": setup_end,
                 "spans": tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
