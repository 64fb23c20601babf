"""Sine-basis spectral tools on the unit box (0,1)^d.

Modes are the Dirichlet Laplacian eigenfunctions

    phi_m(x) = prod_i sqrt(2) sin(k_i pi x_i),   m = (k_1..k_d), 1 <= k_i <= N,

normalised to unit L^2 norm, so for a coefficient vector a:

    |u|^2      = sum a_m^2
    |grad u|^2 = sum mu_m a_m^2,    mu_m = pi^2 sum_i k_i^2

The phase space X_t of the paper's pullback attractors is normed by

    |(u, v)|^2_{X_t} = |grad u|^2 + eps(t) |v|^2 = sum mu_m u_m^2 + eps v_m^2,

a norm only where eps(t) is finite and positive. It is defined here once:
xt_norm_sq evaluates it, and xt_scale gives the coordinate scale
(sqrt(mu_m), sqrt(eps)) in which it is Euclidean, which the X_t draw
(sample_xt) and the cloud distances (attractor.hausdorff_semidist) use.

Every differential operator is diagonal here, which makes the energy
functionals exact coefficient sums. Grid transforms are type-I sine
transforms applied one field axis at a time by cached dense matrices: every
axis but the last is a broadcast matmul from the left on a (rows, N, rest)
reshape, the last axis one GEMM from the right on the (-1, N) reshape, so no
axis is ever moved or copied (at d = 1, one vector-matrix product per field,
so a field in a batch gets the bits it gets alone). to_grid takes the last
axis first and goes down to axis 0, from_grid goes up from axis 0 and ends
with the last: the axes ahead of a broadcast stage are still (or already)
at the band's N, not the grid's 2N, so its loop runs over the fewest and
largest products. At desk resolutions that is cheaper than an FFT. One
routine, ``_Contraction``, binds the stages of a map to their buffers and
views once, and every transform runs it; a stage that is one small 2-D
product (a single field's GEMM, or a broadcast stage with one leading row) is
bound to ``np.dot``, whose dispatch costs about 0.7 us less than
``np.matmul``'s, which matters in a single trajectory's step. g's projection
has one path, a ``nonlinearity_work`` plan: a stepping loop binds one per
thread and (g, basis, batch shape), so a step runs the stage products and g
into the plan's buffers and allocates nothing; a call without a plan (the
ledger's) makes one per shape of its row blocks of at most _BLOCK_VALUES
grid values. A plan's buffers, the stage outputs of ``_Contraction`` and g's
grid, come from ``empty_aligned`` and start on a 64-byte boundary, as do the
stepping loop's (see integrator): np.empty aligns only to 16 bytes, and a
misaligned elementwise pass splits every 64-byte vector load across two
cache lines (an add at (64, 256): 10-12 us against 4.6 us aligned; a
16-step ensemble leg at (64, 256), d = 2, with every buffer 16 bytes off:
5.0 ms against 4.2 ms; AVX-512 x86 box, BLAS at 1 thread). Alignment
changes no bits. g is collocated on
the nodes j/(2N+1), which makes it the exact Galerkin projection for cubic
g; g's constant factor rides on the plan's inverse matrix instead of a pass
over the grid. All field operations accept a leading batch
dimension: ensembles evolve as one array, and a trajectory's records are
evaluated as one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial

import numpy as np

from .model import EpsilonProfile, NonlinearitySpec, eval_epsilon, eval_G, eval_g_value


@dataclass(frozen=True)
class Basis:
    """Fixed enumeration of sine modes: lexicographic in the multi-index."""

    dim: int
    modes_per_dim: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.modes_per_dim < 1:
            raise ValueError("need at least one mode per dimension")

    @cached_property
    def multi_indices(self) -> np.ndarray:
        ks = list(itertools.product(range(1, self.modes_per_dim + 1), repeat=self.dim))
        return np.asarray(ks, dtype=int)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.pi ** 2 * np.sum(self.multi_indices.astype(float) ** 2, axis=1)

    @property
    def n_modes(self) -> int:
        return self.modes_per_dim ** self.dim

    @property
    def lambda1(self) -> float:
        return float(self.dim * np.pi ** 2)

    def mode_labels(self) -> list[str]:
        return ["-".join(str(k) for k in m) for m in self.multi_indices]


@dataclass(frozen=True)
class ModalState:
    """Galerkin coefficients of (u, u_t) at one time instant, or a batch:
    rows of u and v with one time per row in t (or one t for all rows)."""

    u: np.ndarray
    v: np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape:
            raise ValueError("u and v must share a shape")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def norm_sq(f: np.ndarray) -> np.ndarray | float:
    out = np.sum(np.asarray(f, dtype=float) ** 2, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def grad_norm_sq(basis: Basis, f: np.ndarray) -> np.ndarray | float:
    # mu f^2 in one temporary: at (2001, 32) records a second one of 512 KB
    # cost 0.4 ms of fresh pages per call (2-core x86 box, glibc malloc)
    sq = np.square(np.asarray(f, dtype=float))
    sq *= basis.eigenvalues
    out = np.sum(sq, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def inner(f: np.ndarray, g: np.ndarray) -> np.ndarray | float:
    out = np.sum(np.asarray(f, dtype=float) * np.asarray(g, dtype=float), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def xt_norm_sq(basis: Basis, state: ModalState, eps: EpsilonProfile) -> np.ndarray | float:
    """Squared phase-space norm |grad u|^2 + eps(t) |v|^2 at the state's time;
    one value per row of a batched state."""
    e, _ = eval_epsilon(eps, state.t)
    return grad_norm_sq(basis, state.u) + e * norm_sq(state.v)


def xt_scale(basis: Basis, eps: float) -> tuple[np.ndarray, float]:
    """(sqrt(mu_m), sqrt(eps)): the factors that map the coefficients (u, v)
    to coordinates in which the X_t norm at eps is Euclidean. ValueError
    unless eps is finite and positive, where alone X_t is normed."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"the X_t metric needs a finite eps > 0, not eps = {eps:.6g}")
    return np.sqrt(basis.eigenvalues), math.sqrt(eps)


def sample_xt(rng: np.random.Generator, n: int, basis: Basis, eps: float, radius: float,
              ball: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """n states (rows of us and vs) on the sphere of the given radius in the X_t
    norm |grad u|^2 + eps |v|^2, or uniform in its ball: one standard normal
    per coordinate of that norm (xt_scale, so ValueError unless eps is finite
    and positive), so the draw is isotropic in it."""
    scale_u, scale_v = xt_scale(basis, eps)
    m = basis.n_modes
    y = rng.standard_normal((n, 2 * m))
    norms = np.sqrt(np.sum(y ** 2, axis=1))
    if ball:
        radius = radius * rng.random(n) ** (1.0 / (2 * m))
    y *= (radius / norms)[:, None]
    return y[:, :m] / scale_u, y[:, m:] / scale_v


def dual_norm_sq(basis: Basis, f: np.ndarray) -> np.ndarray | float:
    """Squared H^{-1} norm: |(-Lap)^{-1/2} f|^2."""
    out = np.sum(np.asarray(f, dtype=float) ** 2 / basis.eigenvalues, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _dst_matrix(n_modes: int, grid_pts: int) -> np.ndarray:
    """sqrt(2) sin(pi k j / M) for k = 1..n, j = 1..M-1 (modes x nodes)."""
    k = np.arange(1, n_modes + 1)[:, None]
    j = np.arange(1, grid_pts)[None, :]
    return np.sqrt(2.0) * np.sin(np.pi * k * j / grid_pts)


@lru_cache(maxsize=None)
def _dst_pair(n_modes: int, grid_pts: int, scale: float = 1.0) -> tuple[tuple, tuple]:
    """(forward, inverse) contraction matrices, each as (left, right).

    The forward matrix T is modes x nodes; the inverse is T / M, since
    T @ T.T = M I on the band. ``left`` acts on a field axis from the left,
    ``right`` on the last axis from the right. The inverse map runs its
    ``right`` last, so ``scale`` (g's factor, from nonlinearity_work alone)
    multiplies that matrix only and the map returns scale times the
    projection (bitwise so for scale = +-1). All four are C-contiguous and
    read-only, as every caller shares them.
    """
    fwd = _dst_matrix(n_modes, grid_pts)
    inv = fwd / grid_pts
    mats = (np.ascontiguousarray(fwd.T), fwd, inv, scale * np.ascontiguousarray(inv.T))
    for m in mats:
        m.flags.writeable = False
    return mats[:2], mats[2:]


_ALIGN = 64  # bytes: one cache line, and one AVX-512 vector


def empty_aligned(shape) -> np.ndarray:
    """np.empty(shape) of floats whose first element starts on a 64-byte
    boundary: a view of one np.empty with 8 floats to spare. np.empty aligns
    only to 16 bytes, so where a field-sized buffer starts within its cache
    line is the heap's choice; a misaligned buffer splits every 64-byte
    vector load of an elementwise pass across two cache lines (see the
    module docstring). The view's base holds 64 bytes more."""
    n = math.prod(shape)
    raw = np.empty(n + _ALIGN // 8)
    skip = -raw.ctypes.data % _ALIGN // 8
    return raw[skip:skip + n].reshape(shape)


_DOT_VALUES = 1 << 12  # output values up to which a one-product stage runs np.dot


class _Contraction:
    """One grid map, to_grid's or from_grid's (``mats`` from _dst_pair), on
    ``batch`` fields of n_in^dim values, bound to buffers allocated here in
    stage order, each by empty_aligned, so every stage writes from a 64-byte
    boundary (see the module docstring).

    The map takes one field axis per stage: stage a views the previous
    stage's output as (batch * the sizes of the axes before a, n_in, the
    sizes of the axes after a), and for a < dim-1 runs a broadcast matmul
    with ``left`` from the left, for the last axis one GEMM of the (-1, n_in)
    view with ``right`` (at dim = 1 one row at a time: BLAS rounds a lone row
    differently from a GEMM row). A broadcast matmul is one product per
    leading row, so the order keeps the axes ahead of it at the band's size:
    a widening map (n_out > n_in, to_grid's) starts with the GEMM on the
    last axis and goes down to axis 0; a narrowing one (from_grid's) goes up
    from axis 0 and ends with the GEMM. Every view is a reshape of a
    contiguous array, taken here once, so a call runs the dim products and
    nothing is transposed or copied. A call returns ``result``, the last
    buffer viewed in ``shape``; it holds until the next call. The input is a
    contiguous array handed to each call, or ``src``, bound here, which the
    caller refills between calls.

    A stage that is one 2-D product, the GEMM or a broadcast with one leading
    row, runs ``np.dot`` on 2-D views when it has at most _DOT_VALUES output
    values and no dimension of 1. Both functions run the same BLAS GEMM there,
    so the bits are matmul's, but np.dot dispatches about 0.7 us faster per
    call ((36 x 6)(6 x 12): 2.2 -> 1.4 us), which is a good share of a single
    field's step; on larger products it is 10-22 % slower (about even at 6912
    outputs). A true broadcast, a larger product, a product with a dimension
    of 1 (BLAS may take a vector path) and every stage at dim = 1 (the
    lone-row rule above) keep ``np.matmul``.
    """

    __slots__ = ("entry", "src", "head", "tail", "result")

    def __init__(self, mats, batch: int, dim: int, shape: tuple, src=None):
        left, right = mats
        n_out, n_in = left.shape
        sizes, stages, prev = [n_in] * dim, [], None
        for a in (reversed(range(dim)) if n_out > n_in else range(dim)):
            lead, rest = batch * math.prod(sizes[:a]), math.prod(sizes[a + 1:])
            sizes[a] = n_out
            if a < dim - 1:  # lead products (n_out, n_in)(n_in, rest)
                view, out = (lead, n_in, rest), empty_aligned((lead, n_out, rest))
                one, (m, k, n) = lead == 1, (n_out, n_in, rest)
            elif dim > 1:  # one product (lead, n_in)(n_in, n_out)
                view, out = (lead, n_in), empty_aligned((lead, n_out))
                one, (m, k, n) = True, (lead, n_in, n_out)
            else:  # a lone row per field (see above)
                view, out = (lead, 1, n_in), empty_aligned((lead, 1, n_out))
                one = False
            op, res = np.matmul, out
            if one and min(m, k, n) > 1 and m * n <= _DOT_VALUES:
                op, view, res = np.dot, view[-2:], out.reshape(m, n)
            x = None if prev is None else prev.reshape(view)  # None: the input
            stages.append((op, left, x, res) if a < dim - 1 else (op, x, right, res))
            if prev is None:
                self.entry = view
            prev = out
        self.head, self.tail = stages[0], tuple(stages[1:])
        self.src = None if src is None else src.reshape(self.entry)
        self.result = prev.reshape(shape)

    def __call__(self, x=None) -> np.ndarray:
        x = self.src if x is None else x.reshape(self.entry)
        op, a, b, out = self.head
        op(x if a is None else a, x if b is None else b, out=out)
        for op, a, b, out in self.tail:
            op(a, b, out=out)
        return self.result


def to_grid(basis: Basis, f: np.ndarray, grid_pts: int) -> np.ndarray:
    """Nodal values at the interior collocation nodes j/M, j = 1..M-1, per dim
    (M > N, or the band aliases; the nonlinearity uses M = 2N + 1), of shape
    f.shape[:-1] + (M-1,)*dim."""
    f = np.ascontiguousarray(f, dtype=float)
    lead = f.shape[:-1]
    return _Contraction(_dst_pair(basis.modes_per_dim, grid_pts)[0], math.prod(lead),
                        basis.dim, lead + (grid_pts - 1,) * basis.dim)(f)


def from_grid(basis: Basis, values: np.ndarray, grid_pts: int) -> np.ndarray:
    """Project nodal values back onto the retained band (inverse of to_grid
    for band-limited fields)."""
    values = np.ascontiguousarray(values, dtype=float)
    lead = values.shape[: values.ndim - basis.dim]
    return _Contraction(_dst_pair(basis.modes_per_dim, grid_pts)[1], math.prod(lead),
                        basis.dim, lead + (basis.n_modes,))(values)


def integrate_grid(values: np.ndarray, grid_pts: int, dim: int) -> np.ndarray | float:
    """Integral over the unit box of a nodal function vanishing on the
    boundary (trapezoid rule; spectrally accurate for the odd extension)."""
    axes = tuple(range(-dim, 0))
    out = np.sum(values, axis=axes) / grid_pts ** dim
    return float(out) if np.ndim(out) == 0 else out


def _quadrature_pts(basis: Basis) -> int:
    """M = 2N + 1: the collocation nodes are j/M, j = 1..M-1, per dimension.

    For u in the band, u^3 phi_m and u^4 are cosine sums of wavenumber at
    most 4N per dimension, and the rule on the nodes j/M integrates cos(k pi x)
    exactly for 0 < k < 2M. So the quadrature is exact for cubic g; with
    M = 2N, wavenumber 4N would alias onto the mean.
    """
    return 2 * basis.modes_per_dim + 1


def nonlinearity_work(spec: NonlinearitySpec, basis: Basis, lead: tuple) -> tuple:
    """Plan of eval_nonlinearity_modal for C-contiguous fields of shape
    lead + (n_modes,): (to, g, back), the to_grid map, the grid array g is
    written into and the from_grid map bound to read it, with g's factor
    in its last matrix, allocated in that order (for g = 0, a zero array as
    ``back``, made here once and returned as is by every call: no caller
    writes it). The grid array and every stage buffer start on a 64-byte
    boundary (empty_aligned), as g's pass over the grid is elementwise.
    Every view of a call is bound here, once. The result is back's buffer,
    so it holds only until the next call with the same plan."""
    if spec.kind == "zero":
        return None, None, np.zeros(lead + (basis.n_modes,))
    M, batch = _quadrature_pts(basis), math.prod(lead)
    fwd = _dst_pair(basis.modes_per_dim, M)[0]
    inv = _dst_pair(basis.modes_per_dim, M, spec.factor)[1]
    grid = lead + (M - 1,) * basis.dim
    to = _Contraction(fwd, batch, basis.dim, grid)
    g = empty_aligned(grid)
    return to, g, _Contraction(inv, batch, basis.dim, lead + (basis.n_modes,), src=g)


_BLOCK_VALUES = 1 << 15  # grid values (256 KB) per row block of a call without a plan


def _in_row_blocks(basis: Basis, f: np.ndarray, bind, width: tuple) -> np.ndarray:
    """The fields of f, shaped f.shape[:-1] + width, mapped in blocks of at
    most _BLOCK_VALUES nodal values on the quadrature grid (at least one row)
    by bind(rows), the map of a (rows, n_modes) block, bound once per block
    shape (so at most twice a call); every row gets the bits it gets alone."""
    rows = np.ascontiguousarray(f, dtype=float).reshape(-1, basis.n_modes)
    step = max(1, _BLOCK_VALUES // (_quadrature_pts(basis) - 1) ** basis.dim)
    out, bind = np.empty((rows.shape[0],) + width), cache(bind)
    for i in range(0, rows.shape[0], step):
        out[i:i + step] = bind(rows[i:i + step].shape[0])(rows[i:i + step])
    return out.reshape(np.shape(f)[:-1] + width)


def _run_work(spec: NonlinearitySpec, f: np.ndarray, work: tuple) -> np.ndarray:
    to, g, back = work
    if to is None:  # g = 0: no transform
        return back
    eval_g_value(spec, to(f), g, unscaled=True)
    return back()


def eval_nonlinearity_modal(spec: NonlinearitySpec, basis: Basis, f: np.ndarray,
                            work=None) -> np.ndarray:
    """Galerkin projection (g(u), phi_m) by collocation on the nodes j/M,
    M = 2N+1, per dimension: exact for polynomial g up to degree 3.

    Every call runs a nonlinearity_work plan: the caller's ``work``, into
    whose buffers it writes (the result holds until the plan's next call),
    or, without one, a plan per row-block shape of this call, the blocks
    copied into a new array. The nodes get the unscaled g, and g's constant
    factor (NonlinearitySpec.factor) multiplies the plan's inverse matrix,
    which saves a pass over the grid and gives g's own bits for a factor of
    +-1. With or without a caller's plan, a row gets the same bits."""
    if work is None:
        return _in_row_blocks(basis, f, lambda rows: partial(
            _run_work, spec, work=nonlinearity_work(spec, basis, (rows,))), (basis.n_modes,))
    return _run_work(spec, f, work)


def integral_of_G(spec: NonlinearitySpec, basis: Basis, f: np.ndarray) -> np.ndarray | float:
    """(G(u), 1) by quadrature on the nodes j/M, M = 2N+1, per dimension:
    exact for G up to degree 4 (cubic g). One value per row of a batch,
    evaluated in row blocks, with one to_grid map and one pair of grid
    buffers for eval_G's G and scratch per block shape, so a block allocates
    no grid-sized array."""
    if spec.kind == "zero":
        out = np.zeros(np.asarray(f).shape[:-1])
    else:
        M, dim = _quadrature_pts(basis), basis.dim
        fwd = _dst_pair(basis.modes_per_dim, M)[0]

        def bind(rows):
            grid = (rows,) + (M - 1,) * dim
            to = _Contraction(fwd, rows, dim, grid)
            G, scratch = empty_aligned(grid), empty_aligned(grid)
            return lambda x: integrate_grid(eval_G(spec, to(x), G, scratch), M, dim)
        out = _in_row_blocks(basis, f, bind, ())
    return float(out) if np.ndim(out) == 0 else out
