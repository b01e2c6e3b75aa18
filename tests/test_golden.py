"""Pinned SHA-256 digests of small frozen-seed outputs of the production path.

Every optimisation of the B kernels and the noise block promises unchanged
bytes; these digests make any bit change, including a flipped sign of zero,
fail loudly.  They hold for the numpy/scipy pair the suite runs on (pocketfft
and the Philox normal sampler fix the bits); a library upgrade that changes
them must be re-pinned on its own, never together with a code change.
"""

import hashlib

import numpy as np

from navsto import dynamics as dyn
from navsto import noise as ns
from navsto import nonlinearity as nl
from navsto import spectral as sp


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def field(n, seed, s=2.0, amplitude=1.0):
    return sp.random_divfree_field(n, sp.powerlaw_profile(s, amplitude), seed).coeffs


def test_run_ensemble_expo_em_n4():
    # 48 paths span several B tiles at N=4 plus a ragged last one
    cfg = dyn.SimConfig(n=4, dt=0.01, t_end=0.03, scheme="expo-em", q0=30.0, seed=4101)
    rec = dyn.run_ensemble(cfg, np.arange(48), x0=field(4, 4102))
    assert digest(rec.final, rec.h2, rec.v2, rec.w2) == (
        "59fc34ea302107980b0b7adb0d1c8d741a01780e4578859e4eced7340baca723")


def test_run_tangent_ensemble_float32_chi_prime_active():
    x = sp.random_divfree_field(4, sp.powerlaw_profile(3.0), seed=4103)
    w2 = float(sp.sobolev_norm_sq(x.coeffs, x.table.lam, sp.theta(0.25)))
    x = x * np.sqrt(282.8 / w2)
    R = 281.3   # the start sits mid-band in [R+1, R+2], so chi' fires
    cfg = dyn.SimConfig(n=4, dt=0.025, t_end=0.075, scheme="expo-em", mode="cutoff",
                        r=R, alpha0=0.25, q0=1.0, seed=4104)
    assert dyn.chi_r_prime(282.8, R) != 0.0
    out = dyn.run_tangent_ensemble(cfg, x.coeffs, field(4, 4105, 3.0, 0.5),
                                   np.arange(48), precision="single")
    assert out["final"].dtype == np.complex64
    assert digest(out["final"], out["bel_sum"]) == (
        "837e6f04977900de15b75101b70bdaca012e583b9d33d34b5e70fb26517de6b3")


def test_paired_full_cutoff():
    cfg = dyn.SimConfig(n=4, dt=1e-3, t_end=0.02, scheme="expo-em", q0=60.0, seed=4106)
    res = dyn.paired_full_cutoff(cfg, np.arange(24), R=20.0)
    assert res["crossings"] > 0
    assert digest(res["w2_full"], res["w2_cutoff"], res["tau_full"], res["tau_cutoff"],
                  res["mismatch_steps"]) == (
        "7c32a724e5f38f0860e25ad58c0c31f94c4ffb0e537e1cb21a0b621664cf7120")


def test_b_batch_n8():
    tab = sp.mode_table(8)
    out = nl.b_batch(field(8, 4107), field(8, 4108), tab, nl.dealias_grid(8))
    assert digest(out) == (
        "78efe0bc8eba1e2bac524570866afb790a4084159602a8a648ab3ddb398da596")


def test_ou_block_n6():
    cov = ns.build_covariance(0.75, 30.0, 6)
    g = ns.ou_block(cov, 1e-3, seed=4109, path_ids=np.arange(40), step=3)
    assert digest(g) == (
        "f5d89aac640dcfce10e4eca17d08252240175a511ff79cf30ca8452bbf2e3081")
