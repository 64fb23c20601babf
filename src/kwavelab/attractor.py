"""Pullback ensembles, absorbing-set checks, and attractor cloud distances.

The pullback attractor at time t* is approximated by evolving a finite
ensemble sampled from the absorbing ball of radius B(t* - tau) forward over
a long horizon tau; the endpoint set is the cloud. Truncating the horizon
replaces the nested-intersection construction, and a Cauchy-in-tau self-test
quantifies the truncation error.

The phase-space metric is the X_t norm |grad u|^2 + eps(t)|u_t|^2, defined
once in spectral: xt_norm_sq, and xt_scale, the coordinate scale in which it
is Euclidean, which raises ValueError unless eps is finite and positive. An
ensemble is one spectral.sample_xt draw, isotropic in that metric, on the
sphere or in the ball of radius B(t* - tau). Distances between clouds are
Hausdorff semi-distances in it at the common evaluation time, Euclidean on
xt_scale's coordinates. One GEMM screens the pairs with a rigorous rounding
bound, and only the pairs that can be a row's nearest get the exact distance,
summed in scipy cdist's order; so the result has the bits of a brute-force
pairwise comparison.

Every (delta, tau) pair is one independent pullback leg. One routine, _clouds,
builds the clouds of the absorbing check and the delta sweep, and hands all its
legs to one scheduler, _evolve_legs, which parallelises across whole legs
rather than within one, on a thread pool that outlives the call (_leg_pool,
one at a time), so its workers keep their step workspaces. The entry points
take their t*, deltas, horizons and leg step dt from one EnsembleSpec, the
resolved attractor.* section of a config.

_clouds evolves every leg twice, at the two EnsembleSpec.steps dt and 2 dt,
in one batch of legs. The step is second order, so |x(dt) - x(2 dt)| / 3
estimates the time-step error of a number x read off the dt clouds (step
doubling; Hairer, Norsett and Wanner, Solving ODEs I, II.4). Each row of the absorbing check and of the
sweep reports that estimate as dt_gap; the 2 dt clouds are dropped once it is
taken.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import EnergyParams, eval_B
from .integrator import evolve_ensemble
from .model import ModelSpec, eval_epsilon
from .spectral import Basis, ModalState, empty_aligned, sample_xt, xt_norm_sq, xt_scale

SAMPLINGS = ("sphere_surface", "ball_uniform")


@dataclass(frozen=True, kw_only=True)
class EnsembleSpec:
    """The resolved attractor.* section: the ensemble drawn from the absorbing
    ball (n_points, sampling, seed), the pullback horizons taus, the
    evaluation time t_star, the deltas compared, and the leg step dt."""

    n_points: int = 64
    sampling: str = "sphere_surface"
    seed: int = 0
    taus: tuple[float, ...] = (5.0, 10.0, 20.0)
    t_star: float = 0.0
    deltas: tuple[float, ...] = (0.1, 0.05, 0.0)
    dt: float

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("need at least one ensemble member")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be nonnegative")
        if self.sampling not in SAMPLINGS:
            raise ValueError(f"unknown sampling {self.sampling!r}")
        taus = tuple(float(t) for t in self.taus)
        if not taus or min(taus) <= 0 or any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("taus must be positive, strictly increasing and nonempty")
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas or min(deltas) < 0 or len(set(deltas)) < len(deltas):
            raise ValueError(f"attractor.deltas must be nonnegative, distinct and "
                             f"nonempty, not {list(deltas)}")
        if self.dt <= 0:
            raise ValueError(f"attractor.dt = {self.dt:g} must be positive")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "deltas", deltas)

    @property
    def steps(self) -> tuple[float, float]:
        """(dt, 2 dt): the steps of a leg's fine pass and of its doubling pass."""
        return self.dt, 2.0 * self.dt


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


_BUF_FLOATS = 1 << 15  # size bound (256 KB) of _min_sq_dist's screening blocks
_GATHER_FLOATS = 1 << 13  # size bound (64 KB) of _sq_dist's gathered differences
_coordinates = threading.local()  # each thread's P and Q: see _coordinate_pair


def _sq_dist(P: np.ndarray, Q: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows P[ia[k]] and Q[ib[k]].

    The squared differences of a pair are summed one coordinate after the
    other (np.add.accumulate along the coordinate axis), the order scipy's
    cdist uses, so the square root equals cdist's distance bit for bit. Not
    calling cdist keeps scipy.spatial, whose import costs ~30 MB of resident
    memory, out of the attractor commands. The pairs go in blocks of at most
    _GATHER_FLOATS differences, whose two gathered arrays stay below malloc's
    128 KiB mmap threshold and so reuse heap pages (blocks of 256 KB mapped
    fresh ones on every call: 864 minor faults per `sweep-d2` repetition).
    """
    out = np.empty(ia.size)
    step = max(1, _GATHER_FLOATS // P.shape[1])
    for j in range(0, ia.size, step):
        D = P[ia[j:j + step]]
        np.subtract(D, Q[ib[j:j + step]], out=D)
        np.multiply(D, D, out=D)
        np.add.accumulate(D, axis=1, out=D)
        out[j:j + step] = D[:, -1]
    return out


def _min_sq_dist(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """For each row p of P, the least squared distance to a row of Q, with the
    bits of the minimum of _sq_dist over all pairs.

    Pairs are screened by the GEMM expansion D~ = |p|^2 + |q|^2 - 2 p.q,
    which is cheap but rounds differently. For c coordinates, D~ and _sq_dist
    are each within gamma_{c+2} (|p| + |q|)^2 of the exact squared distance
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), so with

        e = k ((|p| + |q|)^2 + tiny),   k = 4 (c + 4) eps >= 2 gamma_{c+2} + 2u

    (u = eps / 2, the unit roundoff), |D~ - _sq_dist| <= e; the margin in k
    covers the rounding of e itself, and the smallest normal float ``tiny``
    the absolute error of underflow. A q is dropped only if D~ - e exceeds
    the least D~ + e of its row, so every minimiser of _sq_dist is kept, and
    only the kept pairs get _sq_dist. An overflowing norm makes e, or D~,
    non-finite, and then every pair of the row is kept: brute force. Rows of
    P go in blocks of at most _BUF_FLOATS pairs.
    """
    n_b, c = Q.shape
    k = 4.0 * (c + 4) * np.finfo(float).eps
    q2 = np.einsum("ij,ij->i", Q, Q)
    q1 = np.sqrt(q2)
    out = np.empty(P.shape[0])
    rows = max(1, _BUF_FLOATS // n_b)
    for i in range(0, P.shape[0], rows):
        Pb = P[i:i + rows]
        p2 = np.einsum("ij,ij->i", Pb, Pb)
        approx = np.matmul(Pb, Q.T)
        approx *= -2.0
        approx += p2[:, None]
        approx += q2
        bound = np.add.outer(np.sqrt(p2), q1)
        bound *= bound
        bound += np.finfo(float).tiny
        bound *= k
        upper = approx + bound
        approx -= bound
        ia, ib = np.nonzero(~(approx > np.min(upper, axis=1, keepdims=True)))
        row_starts = np.flatnonzero(np.diff(ia, prepend=-1))
        out[i:i + rows] = np.minimum.reduceat(_sq_dist(Pb, Q, ia, ib), row_starts)
    return out


def _sample_arrays(spec: ModelSpec, params: EnergyParams, basis: Basis,
                   t: float, ens: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble's draw from the absorbing ball of radius B(t), seeded by ens.seed."""
    return sample_xt(np.random.default_rng(ens.seed), ens.n_points, basis,
                     eval_epsilon(spec.epsilon, t)[0], eval_B(t, spec, params),
                     ball=ens.sampling == "ball_uniform")


def _plan_pool(sizes, threads: int) -> tuple[list[int], int]:
    """Submission order of legs of sizes[i] = (members, steps), most
    member-steps (members x steps) first, and the pool's worker count, which
    never exceeds the number of legs."""
    order = sorted(range(len(sizes)), key=lambda i: sizes[i][0] * sizes[i][1], reverse=True)
    return order, min(threads, len(sizes))


_pool_lock = threading.Lock()  # held while a call takes the pool and submits its legs
_pool: Optional[tuple[int, ThreadPoolExecutor]] = None  # (workers, pool) of the one pool


def _leg_pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` leg threads, for a caller holding
    _pool_lock. It is made at its first use and kept until the process ends
    or a call asks for another worker count; the old pool is then shut down
    first, once the legs it runs have ended, so the process holds at most one
    pool. Its threads keep their step workspaces (integrator._step_work) from
    one call of _evolve_legs, and one command, to the next. A forked child
    forgets the pool and the lock (the at-fork hook below): it inherits them
    but not the pool's threads, so what it submitted there would never run."""
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = workers, ThreadPoolExecutor(workers, thread_name_prefix=f"kwavelab-legs-{workers}")
    return _pool[1]


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _evolve_legs(legs, basis: Basis, threads: int):
    """Endpoints (us, vs) of each leg (spec, us, vs, t0, t1, dt), in the order given.

    The legs are independent pullback evolutions, each at its own step dt.
    With one thread, or fewer than two legs, they are evolved one at a time,
    as the returned iterator is consumed. Otherwise the process's pool of
    min(threads, legs) workers (_leg_pool) runs whole legs, most member-steps
    first, as _plan_pool says, and the call returns once every leg has ended.
    The pool outlives the call, so its threads keep their step workspaces:
    an idle worker holds one, 2.0 MiB at (64, 216), d = 3, of which the
    transform plan's two grid-sized arenas are 1.7; a call with another
    worker count replaces it. Every row is
    bitwise independent of the batch it is evolved in, so the endpoints do
    not depend on ``threads``; a blow-up is raised for the first failing leg
    in the order given, as on one thread, and names that leg's dt.
    """
    calls = [(us, vs, spec, basis, t0, t1, dt) for spec, us, vs, t0, t1, dt in legs]
    if threads == 1 or len(legs) < 2:
        return (evolve_ensemble(*call) for call in calls)
    order, workers = _plan_pool([(us.shape[0], (t1 - t0) / dt)
                                 for _, us, _, t0, t1, dt in legs], threads)
    futures = [None] * len(legs)
    with _pool_lock:  # no other call shuts the pool down before these legs are in
        pool = _leg_pool(workers)
        for i in order:
            futures[i] = pool.submit(evolve_ensemble, *calls[i])
    wait(futures)
    return (fut.result() for fut in futures)


def _clouds(spec: ModelSpec, params: EnergyParams, basis: Basis, ens: EnsembleSpec,
            deltas, taus, threads: int):
    """Per delta of ``deltas``, in order, the pair (fine, coarse) of lists of
    its endpoint clouds at ens.t_star over the horizons ``taus``, from one
    sample per tau: fine evolved at ens.dt, coarse at 2 ens.dt. Both passes
    are one batch of legs for _evolve_legs, a delta's fine legs before its
    coarse ones. Yielded lazily: on one thread a delta's legs are evolved when
    its pair is asked for."""
    t = ens.t_star
    samples = [_sample_arrays(spec, params, basis, t - tau, ens) for tau in taus]
    specs = [spec.with_delta(float(d)) for d in deltas]
    ends = _evolve_legs([(s, us, vs, t - tau, t, dt) for s in specs for dt in ens.steps
                         for tau, (us, vs) in zip(taus, samples)], basis, threads)
    for s in specs:
        yield tuple([AttractorCloud(t, tau, s.delta, basis, *next(ends)) for tau in taus]
                    for _ in ens.steps)


def pullback_cloud(spec: ModelSpec, params: EnergyParams, basis: Basis,
                   ens: EnsembleSpec, tau: float) -> AttractorCloud:
    """Evolve an absorbing-set sample from ens.t_star - tau to ens.t_star at
    spec.delta and ens.dt (one fine leg of _clouds)."""
    t = ens.t_star
    us, vs = _sample_arrays(spec, params, basis, t - tau, ens)
    return AttractorCloud(t, tau, spec.delta, basis,
                          *evolve_ensemble(us, vs, spec, basis, t - tau, t, ens.dt))


def _dt_gap(fine: float, coarse: float) -> float:
    """Step-doubling estimate of the time-step error of a number read off the
    dt clouds, from its value on the 2 dt clouds (the step is second order)."""
    return abs(fine - coarse) / 3.0


def _coordinate_pair(shape_a: tuple, shape_b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The calling thread's buffers of hausdorff_semidist's coordinates P and
    Q, aligned by empty_aligned, bound once per thread and pair of shapes: a
    call with other shapes replaces them, dropping the old before the new are
    made. At a sweep's (64, 512) each is 256 KB, above malloc's mmap
    threshold, so a pair allocated per call mapped fresh zeroed pages (288 of
    the 546 minor faults of a `sweep-d2` repetition). Every entry is written
    before it is read, and nothing a call returns is theirs."""
    key = (shape_a, shape_b)
    if getattr(_coordinates, "key", None) != key:
        _coordinates.key = _coordinates.pair = None
        _coordinates.pair = (empty_aligned(shape_a), empty_aligned(shape_b))
        _coordinates.key = key
    return _coordinates.pair


def hausdorff_semidist(A: AttractorCloud, B: AttractorCloud, eps_profile) -> float:
    """sup over a in A of the distance to B, in the X_t metric at the common
    evaluation time (asymmetric): Euclidean on the coordinates that
    spectral.xt_scale gives, so ValueError unless eps is finite and positive
    there. sqrt is monotone, so the sqrt of the largest least squared
    distance is the brute-force max-min distance."""
    if A.n_points == 0 or B.n_points == 0:
        raise ValueError("clouds must be nonempty")
    if A.basis != B.basis or not math.isclose(A.t_star, B.t_star, abs_tol=1e-12):
        raise ValueError("clouds must share basis and evaluation time")
    scale_u, scale_v = xt_scale(A.basis, eval_epsilon(eps_profile, A.t_star)[0])
    m = A.basis.n_modes
    P, Q = _coordinate_pair((A.n_points, 2 * m), (B.n_points, 2 * m))
    for c, out in ((A, P), (B, Q)):  # (us * scale_u, vs * scale_v) side by side
        np.multiply(c.us, scale_u, out=out[:, :m])
        np.multiply(c.vs, scale_v, out=out[:, m:])
    return float(np.sqrt(np.max(_min_sq_dist(P, Q))))


@dataclass(frozen=True)
class AbsorbingRow:
    tau: float
    fraction_inside: float
    worst_ratio: float  # max |endpoint|_{X_t} / B(t)
    cauchy_gap: float  # d_H(cloud at tau, cloud at the largest tau)
    dt_gap: float  # step-doubling estimate of the larger of the two errors above


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
                          "worst_ratio": r.worst_ratio, "cauchy_gap": r.cauchy_gap,
                          "dt_gap": r.dt_gap}
                         for r in self.rows]}


def verify_absorbing(spec: ModelSpec, params: EnergyParams, basis: Basis,
                     ens: EnsembleSpec, threads: int = 1) -> list[AbsorbingReport]:
    """Check, for each delta of ens.deltas, that samples of the absorbing ball
    at t - tau land inside the ball at t = ens.t_star, for each pullback
    horizon tau of ens.taus; one report per delta, in order.

    Each row also carries the Cauchy-in-tau truncation gap: the Hausdorff
    semi-distance from its endpoint cloud to that of the largest tau (0 on
    the last row); and dt_gap, the larger step-doubling estimate of the
    errors of its worst_ratio and its cauchy_gap. The endpoint clouds at
    ens.dt are returned in ``clouds``.
    """
    t = ens.t_star
    radius = eval_B(t, spec, params)

    def numbers(cloud, last):
        """(fraction inside, worst ratio, Cauchy gap to ``last``) of one cloud."""
        xt = xt_norm_sq(basis, ModalState(cloud.us, cloud.vs, t), spec.epsilon)
        ratios = np.sqrt(xt) / radius
        gap = (0.0 if cloud is last  # d_H(A, A) = 0
               else hausdorff_semidist(cloud, last, spec.epsilon))
        return float(np.mean(ratios <= 1.0 + 1e-10)), float(np.max(ratios)), gap

    reports = []
    for fine, coarse in _clouds(spec, params, basis, ens, ens.deltas, ens.taus, threads):
        rows = []
        for cloud, rough in zip(fine, coarse):
            inside, worst, gap = numbers(cloud, fine[-1])
            _, worst_2dt, gap_2dt = numbers(rough, coarse[-1])
            rows.append(AbsorbingRow(float(cloud.tau), inside, worst, gap,
                                     max(_dt_gap(worst, worst_2dt), _dt_gap(gap, gap_2dt))))
        empirical_T = None
        for i in range(len(rows)):
            if all(r.fraction_inside == 1.0 for r in rows[i:]):
                empirical_T = rows[i].tau
                break
        reports.append(AbsorbingReport(t, radius, tuple(rows), empirical_T, tuple(fine)))
    return reports


@dataclass(frozen=True)
class SweepRow:
    delta: float
    dist: float
    dt_gap: float  # step-doubling estimate of the error of dist


@dataclass(frozen=True)
class SweepResult:
    t_star: float
    tau: float
    rows: tuple[SweepRow, ...]
    fitted_order: Optional[float]

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "tau": self.tau,
                "fitted_order": self.fitted_order,
                "rows": [{"delta": r.delta, "dist": r.dist, "dt_gap": r.dt_gap}
                         for r in self.rows]}


def semicontinuity_sweep(spec: ModelSpec, params: EnergyParams, basis: Basis,
                         ens: EnsembleSpec, threads: int = 1) -> SweepResult:
    """Distance from each delta-cloud to the delta = 0 cloud at time
    ens.t_star, each evolved over the largest horizon tau of ens.taus.

    The rows run over ens.deltas in descending order, whatever order they
    are given in, and end with the delta = 0 reference, added when absent.
    The same seed (hence the same initial sample) is used for every delta, so
    the columns differ only through the flow. The fitted order is the log-log
    slope of dist against delta over the positive rows. Each row's dt_gap is
    the step-doubling estimate of the error of its dist (0 on the reference).
    With no positive delta, no distance reads a cloud, so no leg is evolved.
    """
    tau = ens.taus[-1]
    nonzero = [d for d in sorted(ens.deltas, reverse=True) if d != 0.0]
    rows = []
    if nonzero:
        clouds = _clouds(spec, params, basis, ens, [0.0] + nonzero, [tau], threads)
        [ref], [ref_2dt] = next(clouds)
        for d, ([cloud], [rough]) in zip(nonzero, clouds):
            dist = hausdorff_semidist(cloud, ref, spec.epsilon)
            rows.append(SweepRow(d, dist, _dt_gap(dist, hausdorff_semidist(rough, ref_2dt,
                                                                            spec.epsilon))))
    rows.append(SweepRow(0.0, 0.0, 0.0))  # the reference itself: d_H(A, A) = 0
    pos = np.log([(r.delta, r.dist) for r in rows if r.delta > 0 and r.dist > 0]).reshape(-1, 2)
    order = float(np.polyfit(pos[:, 0], pos[:, 1], 1)[0]) if len(pos) >= 2 else None
    return SweepResult(ens.t_star, tau, tuple(rows), order)
