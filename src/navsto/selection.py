"""Desk-scale selection demo on a one-dimensional ODE with a solution funnel.

The scalar equation dx/dt = sgn(x) arctan sqrt(|x|) is classically
non-unique from x = 0: besides the rest solution, trajectories may leave
zero at any branch time s with either sign.  A unique representative is
selected by iterated maximization of discounted observables

    J_{lambda, f}(path) = int_0^T exp(-lambda t) f(x(t)) dt,

keeping the argmax set at each stage; the selected family is then checked
for the semiflow (Markov) property S(x)(t + r) = S(S(x)(t))(r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

#: below this seed time the positive branch follows its near-zero series
T_SEED = 1e-3
#: below this state the stepper composes the series instead of RK4: the
#: vector field is sqrt-degenerate and RK4 stage errors amplify like 1/t^2
X_SERIES = 1e-4

ARGMAX_TOL = 1e-9


def _series_value(t: float) -> float:
    """Positive branch from zero: x(t) = t^2/4 - t^4/72 + O(t^6)."""
    return t * t / 4.0 - t**4 / 72.0


def _series_time(x: float) -> float:
    """Inverse of the branch series to matching order."""
    return 2.0 * math.sqrt(x) * (1.0 + x / 9.0)


class TieError(RuntimeError):
    """Criteria exhausted with more than one argmax survivor."""


class HorizonError(ValueError):
    """Discount horizon too short for the requested rate."""


def _rk4_step(x: float, dt: float) -> float:
    if x == 0.0:
        return 0.0  # equilibrium; leaving zero is a separate admissible branch
    if 0.0 < x < X_SERIES:
        return _series_value(_series_time(x) + dt)
    if -X_SERIES < x < 0.0:
        return -_series_value(_series_time(-x) + dt)
    f = lambda v: math.copysign(math.atan(math.sqrt(abs(v))), v) if v != 0.0 else 0.0
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0


def admissible_steps(x: float, dt: float) -> list:
    """One-step evolutions consistent with the ODE from state x.

    Away from zero the flow is unique; at the degenerate equilibrium the
    rest continuation and both square-root branches are all solutions.
    """
    if x == 0.0:
        return [0.0, _series_value(dt), -_series_value(dt)]
    return [_rk4_step(x, dt)]


def integrate(x0: float, horizon: float, dt: float) -> np.ndarray:
    """Trajectory samples on the uniform grid 0, dt, ..., horizon."""
    steps = int(round(horizon / dt))
    out = np.empty(steps + 1)
    out[0] = x = float(x0)
    for i in range(steps):
        x = _rk4_step(x, dt)
        out[i + 1] = x
    return out


def phi_branch(horizon: float, dt: float) -> np.ndarray:
    """The maximal positive branch leaving zero at time zero.

    Seeded with the quadratic asymptote t^2/4 up to T_SEED (plain RK4 stalls
    at the degenerate equilibrium), then integrated by RK4.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = int(round(horizon / dt))
    out = np.empty(steps + 1)
    t = np.arange(steps + 1) * dt
    # always seed at least the first step: RK4 alone stalls at the equilibrium
    seeded = t <= max(T_SEED, dt) + 1e-15
    out[seeded] = t[seeded] ** 2 / 4.0 - t[seeded] ** 4 / 72.0
    i0 = int(seeded.sum()) - 1
    x = out[i0]
    for i in range(i0, steps):
        x = _rk4_step(x, dt)
        out[i + 1] = x
    return out


@dataclass
class BranchPath:
    """One member of the funnel from x = 0 (or the unique path otherwise)."""

    branch_time: float
    sign: int                 # +1, -1, or 0 for the rest solution
    times: np.ndarray
    values: np.ndarray

    def label(self) -> str:
        if self.sign == 0:
            return "zero"
        return f"{'+' if self.sign > 0 else '-'}phi(s={self.branch_time:g})"


@dataclass
class SolutionFunnel:
    initial: float
    horizon: float
    dt: float
    members: list


def enumerate_funnel(a: float, horizon: float, s_grid, dt: float) -> SolutionFunnel:
    """All funnel members: a singleton for a != 0; for a = 0 the rest
    solution plus +/- phi(. - s) over the branch-time grid (grid-aligned)."""
    times = np.arange(int(round(horizon / dt)) + 1) * dt
    if a != 0.0:
        vals = integrate(a, horizon, dt)
        return SolutionFunnel(a, horizon, dt, [BranchPath(0.0, int(np.sign(a)), times, vals)])
    phi = phi_branch(horizon, dt)
    members = [BranchPath(0.0, 0, times, np.zeros_like(times))]
    # branch times snap to the trajectory grid so shifts are exact
    idx = sorted({int(round(float(s) / dt)) for s in np.atleast_1d(s_grid)})
    if len(idx) != len(np.atleast_1d(s_grid)):
        raise ValueError("branch-time grid collides after snapping to the time grid")
    if idx and not (0 <= idx[0] and idx[-1] <= times.size - 1):
        raise ValueError("branch times must lie within the horizon")
    for i in idx:
        shifted = np.zeros_like(times)
        shifted[i:] = phi[: times.size - i]
        members.append(BranchPath(i * dt, +1, times, shifted))
        members.append(BranchPath(i * dt, -1, times, -shifted))
    return SolutionFunnel(a, horizon, dt, members)


def ode_residual(path: BranchPath) -> float:
    """Per-step distance to the nearest admissible one-step evolution.

    At the degenerate point both the rest continuation and the square-root
    branches count as consistent, mirroring the funnel structure.
    """
    dt = float(path.times[1] - path.times[0])
    worst = 0.0
    for i in range(path.values.size - 1):
        x_next = float(path.values[i + 1])
        best = min(abs(x_next - s) for s in admissible_steps(float(path.values[i]), dt))
        worst = max(worst, best)
    return worst


# -- selection criteria ---------------------------------------------------------

_F_MENU = {
    "x": lambda x: x,
    "neg_x": lambda x: -x,
    "x2": lambda x: x * x,
    "tanh": np.tanh,
    "neg_tanh": lambda x: -np.tanh(x),
    "one": lambda x: np.ones_like(x),
    "zero": lambda x: np.zeros_like(x),
}


@dataclass(frozen=True)
class SelectionCriterion:
    lam: float
    f_name: str
    scale: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("discount rate must be positive")
        if self.f_name not in _F_MENU:
            raise ValueError(f"unknown observable {self.f_name!r}; menu: {sorted(_F_MENU)}")

    def f(self, x):
        return self.scale * _F_MENU[self.f_name](x)


def j_functional(path: BranchPath, criterion: SelectionCriterion) -> float:
    """Discounted observable along a deterministic path (Simpson quadrature).

    Requires lam * horizon >= 20 so the truncated tail is below exp(-20).
    """
    t = path.times
    horizon = float(t[-1])
    if criterion.lam * horizon < 20.0 - 1e-12:
        raise HorizonError(
            f"lam*horizon = {criterion.lam * horizon:.3g} < 20; tail truncation unsafe")
    y = np.exp(-criterion.lam * t) * criterion.f(path.values)
    return float(simpson(y, x=t))


def select(funnel: SolutionFunnel, criteria) -> BranchPath:
    """Iterated argmax cascade; ties retained per stage, never index-broken."""
    if not funnel.members:
        raise ValueError("empty funnel")
    if not criteria:
        raise ValueError("empty criteria list")
    survivors = list(funnel.members)
    for crit in criteria:
        js = np.array([j_functional(p, crit) for p in survivors])
        keep = js >= js.max() - ARGMAX_TOL
        survivors = [p for p, k in zip(survivors, keep) if k]
    if len(survivors) > 1:
        raise TieError(
            f"{len(survivors)} paths tie after all criteria; extend the criteria list")
    return survivors[0]


def argmax_set(funnel: SolutionFunnel, criterion: SelectionCriterion) -> set:
    js = np.array([j_functional(p, criterion) for p in funnel.members])
    mx = js.max()
    return {p.label() for p, j in zip(funnel.members, js) if j >= mx - ARGMAX_TOL}


# -- semiflow check -------------------------------------------------------------

def make_selection_map(horizon: float, dt: float, s_grid, criteria):
    """The selected-family map x -> trajectory on [0, horizon].

    Away from zero the solution is unique and is integrated directly; at
    zero the cascade decides.
    """
    def S(x: float) -> np.ndarray:
        if x == 0.0:
            funnel = enumerate_funnel(0.0, horizon, s_grid, dt)
            return select(funnel, criteria).values
        return integrate(x, horizon, dt)

    return S


def semiflow_defects(selection_map, state_grid, t_grid, dt: float):
    """Yield (x, t, r, |S(x)(t+r) - S(S(x)(t))(r)|) for every state and time
    pair with t + r inside the horizon."""
    for x in state_grid:
        traj = selection_map(float(x))
        for t in t_grid:
            i = int(round(t / dt))
            if abs(i * dt - t) > 1e-9:
                raise ValueError(f"time {t} not on the grid")
            tail = selection_map(float(traj[i]))
            for r in t_grid:
                j = int(round(r / dt))
                if i + j >= traj.size or j >= tail.size:
                    continue
                yield x, t, r, abs(traj[i + j] - tail[j])


def check_semiflow(selection_map, state_grid, t_grid, dt: float) -> float:
    """max semiflow defect over states and time pairs (0.0 when none)."""
    return max([0.0] + [d for *_, d in semiflow_defects(selection_map, state_grid, t_grid, dt)])
