"""Size of the MP2, energy and Doob suites on correct code (ROADMAP item 1(b)).

Runs one ensemble at criterion 3's configuration (N=6, expo-em, dt=1e-3,
t=0.008, q0=30, seed 2026, the same two test functions) over K * M path ids,
splits it into K disjoint M-path id blocks and runs criteria 3-5's tests on
each block as the acceptance suite runs them on its 10 000 paths: MP2 with
the Richardson allowances of one shared pilot (criterion 3's, on path ids
0..399), E^1 and E^2 with the same allowances, and Doob on the block's own
lambda grid.  Noise is a pure function of (seed, path, step), so each block
is an independent replicate.  The noise-amplitude control is left out: it
measures power, not size.

Prints one JSON object: per sub-test and per suite, the number of blocks
that failed.  pytest does not collect this file (its name does not start
with test_).  Run from the repository root:

    PYTHONPATH=src python tests/calibrate_mp2_size.py --blocks 20 --paths 1000 --out size.json
"""

import argparse
import json
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from navsto import dynamics as dyn
from navsto import spectral as sp
from navsto import verifier as vf

MP2_CPS = [0.002, 0.004, 0.006, 0.008]   # criterion 3's checkpoints
PILOT_PATHS = 400


def phi(n, cov, k, name):
    """Criterion 3's test function on the mode k."""
    tab = sp.mode_table(n)
    f = sp.SpectralField.zero(n)
    i = tab.index_of(k)
    f.coeffs[i] = tab.pol[i, 0] + 0.5 * tab.pol[i, 1]
    return vf.TestFunction.build(f, cov, name)


def block(rec, rows):
    """The record of the paths in rows (a slice)."""
    return replace(
        rec, path_ids=rec.path_ids[rows], h2=rec.h2[rows], v2=rec.v2[rows],
        w2=rec.w2[rows], int_v2=rec.int_v2[rows],
        int_h2nm2_v2={n: a[rows] for n, a in rec.int_h2nm2_v2.items()},
        int_h2nm2={n: a[rows] for n, a in rec.int_h2nm2.items()},
        mphi=rec.mphi[:, rows], proj_phi=rec.proj_phi[:, rows],
        blown=rec.blown[rows], blow_step=rec.blow_step[rows])


def suites(rec, phis, cov, bias):
    """Criteria 3, 4 (E^1 and E^2) and 5's reports on one block."""
    top = float(np.nanmax(rec.h2)) * 3.0
    return {
        "mp2": vf.test_mp2_martingale(rec, phis, MP2_CPS, cov, bias=bias),
        "energy-E1": vf.test_energy_supermartingale(rec, 1, MP2_CPS, bias=bias),
        "energy-E2": vf.test_energy_supermartingale(rec, 2, MP2_CPS, bias=bias),
        "doob": vf.test_doob(rec, 1, (0.002, 0.008), np.linspace(top / 8.0, top, 8)),
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--blocks", type=int, default=20)
    ap.add_argument("--paths", type=int, default=1000, help="paths per block")
    ap.add_argument("--out", help="also write the JSON here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    cfg = dyn.SimConfig(n=6, dt=1e-3, t_end=0.008, scheme="expo-em", mode="full",
                        alpha0=0.75, q0=30.0, seed=2026)
    cov = cfg.covariance()
    phis = [phi(6, cov, (1, 0, 0), "phi1"), phi(6, cov, (0, 1, 1), "phi2")]
    bias = vf.richardson_bias(cfg, np.arange(PILOT_PATHS), phis, MP2_CPS)
    rec = dyn.run_ensemble(cfg, np.arange(args.blocks * args.paths), phis=phis,
                           keep_final=False)
    run_s = time.perf_counter() - t0

    sub_fails = {}
    suite_fails = Counter()
    any_fail = 0
    n_sub = {}
    for b in range(args.blocks):
        reps = suites(block(rec, slice(b * args.paths, (b + 1) * args.paths)), phis, cov, bias)
        for name, rep in reps.items():
            labels = [band["label"] for band in rep.bands]
            # Doob's labels carry the block's own lambda values: key them by grid slot
            keys = [f"lam_grid[{i}]" for i in range(len(labels))] if name == "doob" else labels
            counts = sub_fails.setdefault(name, Counter(dict.fromkeys(keys, 0)))
            n_sub[name] = len(keys)
            counts.update(dict(zip(labels, keys))[f] for f in rep.failures)
            suite_fails[name] += rep.verdict == "fail"
        any_fail += any(rep.verdict == "fail" for rep in reps.values())
    out = dict(
        config=dict(n=cfg.n, dt=cfg.dt, t_end=cfg.t_end, scheme=cfg.scheme, q0=cfg.q0,
                    alpha0=cfg.alpha0, seed=cfg.seed, checkpoints=MP2_CPS),
        blocks=args.blocks, paths_per_block=args.paths, pilot_paths=PILOT_PATHS,
        blown_paths=int(rec.blown.sum()), run_s=round(run_s, 1),
        sub_tests=n_sub,
        suite_failures=dict(suite_fails), blocks_with_any_failure=any_fail,
        sub_test_failures={name: {k: v for k, v in c.items() if v}
                           for name, c in sub_fails.items()})
    text = json.dumps(out, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return out


if __name__ == "__main__":
    main()
