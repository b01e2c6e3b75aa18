"""navsto benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ensemble-n6 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  The workload runs in a fresh process so
its peak resident memory is its own; two more processes only set up, so
``setup_s`` is the median of three set-ups.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
``--negative-control`` feeds a corrupted output through the workload's
checks, which must then report failures.  A report line (machine, sizes,
checks, output digests) precedes the result line and is also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ensemble-n6", "tangent-n4", "single-state")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 20
MAIN_TIMEOUT_S = 120


def _spawn(args: list[str], timeout: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0)] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "navsto" / "__init__.py").is_file():
        print(f"navsto sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    main_args = common + ["--role", "main", "--seconds", str(args.seconds),
                          "--trace", str(args.trace)]
    if args.negative_control:
        main_args.append("--negative-control")
    if args.trace:
        main_args += ["--spans-out", str(OUT / f"spans-{tag}.json")]
    run = _spawn(main_args, MAIN_TIMEOUT_S)
    setups = [run["setup_s"]]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(common + ["--role", "setup"], PROBE_TIMEOUT_S)["setup_s"])

    units = run["units"]
    plain = [u for u in units if not u["traced"]]
    failed_checks = {}
    attempted = failed = 0
    for u in units:
        attempted += len(u["checks"]) + u["paths"]
        failed += u["blown"]
        for label, ok in u["checks"]:
            failed += not ok
            if not ok:
                failed_checks[label] = failed_checks.get(label, 0) + 1
    digests = sorted({u["digest"] for u in units})
    attempted += 1  # every unit of a run repeats the same inputs: outputs must agree
    if len(digests) != 1:
        failed += 1
        failed_checks["outputs_identical_across_units"] = 1

    if args.trace:
        metrics = dict(run["per_layer"])
        metrics["failed_share"] = failed / attempted
    else:
        metrics = {
            "wall_s": _median(u["wall_s"] for u in plain),
            "setup_s": _median(setups),
            "path_steps_per_s": _median(u["path_steps"] / u["wall_s"] for u in plain),
            "b_evals_per_s": _median(u["b_evals"] / u["b_seconds"] for u in plain),
            "peak_rss_mb": run["peak_rss_mb"],
            "pass_share": 1.0 - failed / attempted,
        }
    machine = run["machine"]
    llc = max(machine["cache_bytes"].items(), key=lambda kv: int(kv[0][1:]), default=(None, 0))
    report = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        negative_control=args.negative_control, machine=machine,
        sizes=dict(largest_array_bytes_computed=run["largest_array_bytes"],
                   last_level_cache=llc[0], last_level_cache_bytes=llc[1],
                   largest_array_over_llc=run["largest_array_bytes"] / llc[1] if llc[1] else None),
        setup_s_samples=setups, units=[{k: u[k] for k in ("traced", "wall_s", "digest", "notes")}
                                       for u in units],
        output_sha256=digests, failed_checks=failed_checks)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    units_of = {"wall_s": "s", "setup_s": "s", "path_steps_per_s": "1/s",
                "b_evals_per_s": "1/s", "peak_rss_mb": "MB", "pass_share": "share"}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of.get(k) or _layer_unit(k)}
                    for k, v in metrics.items()}}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s_per_kps"):
        return "s/kps"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if ".b_call_ms_" in name:
        return "ms"
    if name.endswith("peak_call_bytes"):
        return "bytes_computed"
    if name.endswith(("fft_calls", "fft_points")):
        return "count_computed"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
