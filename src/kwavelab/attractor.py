"""Pullback ensembles, absorbing-set checks, and attractor cloud distances.

The pullback attractor at time t* is approximated by evolving a finite
ensemble sampled from the absorbing ball of radius B(t* - tau) forward over
a long horizon tau; the endpoint set is the cloud. Truncating the horizon
replaces the nested-intersection construction, and a Cauchy-in-tau self-test
quantifies the truncation error.

Sampling is frequency-spread: coefficients are drawn with variance
proportional to 1/mu_m (and 1/eps for the velocity block), which makes the
draw isotropic in the phase-space metric, then rescaled onto the sphere or
into the ball of the target radius. Distances between clouds are Hausdorff
semi-distances in the metric of the common evaluation time, computed by
brute-force pairwise comparison.

Every (delta, tau) pair is one independent pullback leg. The absorbing check
and the delta sweep each hand all their legs to one scheduler,
_evolve_legs, which parallelises across whole legs rather than within one.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import EnergyParams, eval_B
from .integrator import evolve_ensemble
from .model import ModelSpec, eval_epsilon
from .spectral import Basis, ModalState, xt_norm_sq

SAMPLINGS = ("sphere_surface", "ball_uniform")


@dataclass(frozen=True)
class EnsembleSpec:
    n_points: int = 64
    sampling: str = "sphere_surface"
    seed: int = 0
    taus: tuple[float, ...] = (5.0, 10.0, 20.0)

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("need at least one ensemble member")
        if self.sampling not in SAMPLINGS:
            raise ValueError(f"unknown sampling {self.sampling!r}")
        taus = tuple(float(t) for t in self.taus)
        if any(t <= 0 for t in taus) or any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("taus must be positive and strictly increasing")
        object.__setattr__(self, "taus", taus)


@dataclass(frozen=True)
class AttractorCloud:
    t_star: float
    tau: float
    delta: float
    basis: Basis
    us: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        if self.us.shape != self.vs.shape or self.us.shape[-1] != self.basis.n_modes:
            raise ValueError("cloud arrays do not match the basis")

    @property
    def n_points(self) -> int:
        return int(self.us.shape[0])


def _metric_weights(basis: Basis, eps_profile, t: float) -> np.ndarray:
    eps, _ = eval_epsilon(eps_profile, t)
    return np.concatenate([basis.eigenvalues, np.full(basis.n_modes, eps)])


_BUF_FLOATS = 1 << 15  # size bound (256 KB) of _pairwise_dist's work buffer


def _pairwise_dist(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of P and the rows of Q.

    The squared differences are summed one coordinate after the other, the
    order scipy's cdist uses, so the result equals cdist's bit for bit
    (numpy reduces an axis other than the innermost in order). Not calling
    cdist keeps scipy.spatial, whose import costs ~30 MB of resident memory,
    out of the attractor commands. Coordinates go in blocks to keep the
    Python loop short.
    """
    n_a, n_b, n_coords = P.shape[0], Q.shape[0], P.shape[1]
    PT, QT = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)
    block = max(1, min(n_coords, _BUF_FLOATS // max(1, n_a * n_b)))
    buf = np.zeros((block + 1, n_a, n_b))  # row 0: running sum
    for j in range(0, n_coords, block):
        k = min(block, n_coords - j)
        sq = buf[1:k + 1]
        np.subtract(PT[j:j + k, :, None], QT[j:j + k, None, :], out=sq)
        sq *= sq
        buf[0] = np.add.reduce(buf[:k + 1], axis=0)
    return np.sqrt(buf[0])


def _sample_arrays(spec: ModelSpec, params: EnergyParams, basis: Basis,
                   t: float, ens: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    radius = eval_B(t, spec, params)
    eps, _ = eval_epsilon(spec.epsilon, t)
    rng = np.random.default_rng(ens.seed)
    n, m = ens.n_points, basis.n_modes
    y = rng.standard_normal((n, 2 * m))
    norms = np.sqrt(np.sum(y ** 2, axis=1))
    if ens.sampling == "sphere_surface":
        scale = radius / norms
    else:
        r = radius * rng.random(n) ** (1.0 / (2 * m))
        scale = r / norms
    y *= scale[:, None]
    us = y[:, :m] / np.sqrt(basis.eigenvalues)
    vs = y[:, m:] / math.sqrt(eps)
    return us, vs


def _plan_pool(sizes, threads: int) -> tuple[list[int], int]:
    """Submission order of legs of sizes[i] = (members, length), longest
    (members x length) first, and the pool's worker count, which never
    exceeds the number of legs."""
    order = sorted(range(len(sizes)), key=lambda i: sizes[i][0] * sizes[i][1], reverse=True)
    return order, min(threads, len(sizes))


def _evolve_legs(legs, basis: Basis, dt: float, threads: int):
    """Endpoints (us, vs) of each leg (spec, us, vs, t0, t1), in the order given.

    The legs are independent pullback evolutions. With one thread, or fewer
    than two legs, they are evolved one at a time, as the returned iterator is
    consumed. Otherwise a pool runs whole legs, longest first, as _plan_pool
    says. Every row is bitwise independent of the batch it is evolved in, so
    the endpoints do not depend on ``threads``; a blow-up is raised for the
    first failing leg in the order given, as on one thread.
    """
    if threads == 1 or len(legs) < 2:
        return (evolve_ensemble(us, vs, spec, basis, t0, t1, dt)
                for spec, us, vs, t0, t1 in legs)
    order, workers = _plan_pool([(us.shape[0], t1 - t0) for _, us, _, t0, t1 in legs],
                                threads)
    futures = [None] * len(legs)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in order:
            spec, us, vs, t0, t1 = legs[i]
            futures[i] = pool.submit(evolve_ensemble, us, vs, spec, basis, t0, t1, dt)
    return (fut.result() for fut in futures)


def pullback_cloud(spec: ModelSpec, params: EnergyParams, basis: Basis,
                   ens: EnsembleSpec, t_star: float, tau: float,
                   dt: float) -> AttractorCloud:
    """Evolve an absorbing-set sample from t_star - tau to t_star."""
    us, vs = _sample_arrays(spec, params, basis, t_star - tau, ens)
    us, vs = evolve_ensemble(us, vs, spec, basis, t_star - tau, t_star, dt)
    return AttractorCloud(t_star, tau, spec.delta, basis, us, vs)


def hausdorff_semidist(A: AttractorCloud, B: AttractorCloud, eps_profile) -> float:
    """sup over a in A of the distance to B, in the metric at the common
    evaluation time (asymmetric)."""
    if A.n_points == 0 or B.n_points == 0:
        raise ValueError("clouds must be nonempty")
    if A.basis != B.basis or not math.isclose(A.t_star, B.t_star, abs_tol=1e-12):
        raise ValueError("clouds must share basis and evaluation time")
    w = np.sqrt(_metric_weights(A.basis, eps_profile, A.t_star))
    P = np.concatenate([A.us, A.vs], axis=1) * w
    Q = np.concatenate([B.us, B.vs], axis=1) * w
    return float(np.max(np.min(_pairwise_dist(P, Q), axis=1)))


@dataclass(frozen=True)
class AbsorbingRow:
    tau: float
    fraction_inside: float
    worst_ratio: float  # max |endpoint|_{X_t} / B(t)
    cauchy_gap: float  # d_H(cloud at tau, cloud at the largest tau)


@dataclass(frozen=True)
class AbsorbingReport:
    t: float
    radius: float
    rows: tuple[AbsorbingRow, ...]
    empirical_T: Optional[float]  # smallest tau from which absorption holds onward
    clouds: tuple[AttractorCloud, ...]  # endpoint cloud per row; not serialised

    @property
    def passed(self) -> bool:
        return self.empirical_T is not None

    def to_dict(self) -> dict:
        return {"t": self.t, "radius": self.radius,
                "empirical_T": self.empirical_T, "passed": self.passed,
                "rows": [{"tau": r.tau, "fraction_inside": r.fraction_inside,
                          "worst_ratio": r.worst_ratio, "cauchy_gap": r.cauchy_gap}
                         for r in self.rows]}


def verify_absorbing(spec: ModelSpec, params: EnergyParams, basis: Basis,
                     ens: EnsembleSpec, deltas, t: float, dt: float = 1e-2,
                     threads: int = 1) -> list[AbsorbingReport]:
    """Check, for each delta of ``deltas``, that samples of the absorbing ball
    at t - tau land inside the ball at t, for each pullback horizon tau of
    ``ens.taus``; one report per delta, in order.

    Each row also carries the Cauchy-in-tau truncation gap: the Hausdorff
    semi-distance from its endpoint cloud to that of the largest tau (0 on
    the last row). The endpoint clouds are returned in ``clouds``. Neither
    the samples nor the radius depend on delta, so each is computed once, and
    all (delta, tau) legs are evolved in one call of _evolve_legs.
    """
    radius = eval_B(t, spec, params)
    samples = [_sample_arrays(spec, params, basis, t - tau, ens) for tau in ens.taus]
    specs = [spec.with_delta(float(d)) for d in deltas]
    legs = [(s, us, vs, t - tau, t) for s in specs
            for tau, (us, vs) in zip(ens.taus, samples)]
    ends = _evolve_legs(legs, basis, dt, threads)
    reports = []
    for s in specs:
        clouds = tuple(AttractorCloud(t, tau, s.delta, basis, *next(ends))
                       for tau in ens.taus)
        rows = []
        for cloud in clouds:
            xt = xt_norm_sq(basis, ModalState(cloud.us, cloud.vs, t), spec.epsilon)
            ratios = np.sqrt(xt) / radius
            inside = ratios <= 1.0 + 1e-10
            gap = (0.0 if cloud is clouds[-1]  # d_H(A, A) = 0
                   else hausdorff_semidist(cloud, clouds[-1], spec.epsilon))
            rows.append(AbsorbingRow(float(cloud.tau), float(np.mean(inside)),
                                     float(np.max(ratios)), gap))
        empirical_T = None
        for i in range(len(rows)):
            if all(r.fraction_inside == 1.0 for r in rows[i:]):
                empirical_T = rows[i].tau
                break
        reports.append(AbsorbingReport(t, radius, tuple(rows), empirical_T, clouds))
    return reports


@dataclass(frozen=True)
class SweepRow:
    delta: float
    dist: float


@dataclass(frozen=True)
class SweepResult:
    t_star: float
    tau: float
    rows: tuple[SweepRow, ...]
    fitted_order: Optional[float]

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "tau": self.tau,
                "fitted_order": self.fitted_order,
                "rows": [{"delta": r.delta, "dist": r.dist} for r in self.rows]}


def semicontinuity_sweep(spec: ModelSpec, params: EnergyParams, basis: Basis,
                         ens: EnsembleSpec, deltas, t_star: float, tau: float,
                         dt: float, threads: int = 1) -> SweepResult:
    """Distance from each delta-cloud to the delta = 0 cloud at time t_star.

    The same seed (hence the same initial sample) is used for every delta, so
    the columns differ only through the flow. The fitted order is the log-log
    slope of dist against delta over the positive rows.
    """
    deltas = [float(d) for d in deltas]
    if sorted(deltas, reverse=True) != deltas:
        raise ValueError("delta list must be sorted descending")
    if deltas and deltas[-1] != 0.0:
        deltas = deltas + [0.0]
    us, vs = _sample_arrays(spec, params, basis, t_star - tau, ens)
    legs = [(spec.with_delta(d), us, vs, t_star - tau, t_star)
            for d in [0.0] + [d for d in deltas if d != 0.0]]
    ends = _evolve_legs(legs, basis, dt, threads)
    ref_cloud = AttractorCloud(t_star, tau, 0.0, basis, *next(ends))
    rows = []
    for d in deltas:
        if d == 0.0:  # the reference itself: d_H(A, A) = 0
            rows.append(SweepRow(d, 0.0))
            continue
        cloud = AttractorCloud(t_star, tau, d, basis, *next(ends))
        rows.append(SweepRow(d, hausdorff_semidist(cloud, ref_cloud, spec.epsilon)))
    pos = [(r.delta, r.dist) for r in rows if r.delta > 0 and r.dist > 0]
    order = None
    if len(pos) >= 2:
        ld = np.log([p[0] for p in pos])
        lv = np.log([p[1] for p in pos])
        order = float(np.polyfit(ld, lv, 1)[0])
    return SweepResult(t_star, tau, tuple(rows), order)
