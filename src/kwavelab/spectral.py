"""Sine-basis spectral tools on the unit box (0,1)^d.

Modes are the Dirichlet Laplacian eigenfunctions

    phi_m(x) = prod_i sqrt(2) sin(k_i pi x_i),   m = (k_1..k_d), 1 <= k_i <= N,

normalised to unit L^2 norm, so for a coefficient vector a:

    |u|^2      = sum a_m^2
    |grad u|^2 = sum mu_m a_m^2,    mu_m = pi^2 sum_i k_i^2

Every differential operator is diagonal here, which makes the energy
functionals exact coefficient sums. Grid transforms are type-I sine
transforms applied one field axis at a time by cached dense matrices: every
axis but the last is a broadcast matmul from the left on a (rows, N, rest)
reshape, the last axis one GEMM from the right on the (-1, N) reshape, so no
axis is ever moved or copied (at d = 1, one vector-matrix product per field,
so a field in a batch gets the bits it gets alone). At desk resolutions that
is cheaper than an FFT. Each stage can write into a given buffer
(``np.matmul(..., out=)``), and g into a given grid array, so a stepping
loop that holds a ``nonlinearity_work`` workspace transforms without
allocating; without one, they run in row blocks of at most _BLOCK_VALUES
grid values. The nonlinearity is collocated on the nodes j/(2N+1), which
makes it the exact Galerkin projection for cubic g. All field operations
accept a leading batch dimension: ensembles evolve as one array, and a
trajectory's records are evaluated as one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import (EpsilonProfile, NonlinearitySpec, eval_epsilon, eval_g,
                    eval_g_value)


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


def zero_state(basis: Basis, t: float = 0.0) -> ModalState:
    return ModalState(np.zeros(basis.n_modes), np.zeros(basis.n_modes), t)


def norm_sq(f: np.ndarray) -> np.ndarray | float:
    out = np.sum(np.asarray(f, dtype=float) ** 2, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def grad_norm_sq(basis: Basis, f: np.ndarray) -> np.ndarray | float:
    out = np.sum(basis.eigenvalues * np.asarray(f, dtype=float) ** 2, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def inner(f: np.ndarray, g: np.ndarray) -> np.ndarray | float:
    out = np.sum(np.asarray(f, dtype=float) * np.asarray(g, dtype=float), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def xt_norm_sq(basis: Basis, state: ModalState, eps: EpsilonProfile) -> np.ndarray | float:
    """Squared phase-space norm |grad u|^2 + eps(t) |v|^2 at the state's time;
    one value per row of a batched state."""
    e, _ = eval_epsilon(eps, state.t)
    return grad_norm_sq(basis, state.u) + e * norm_sq(state.v)


def dual_norm_sq(basis: Basis, f: np.ndarray) -> np.ndarray | float:
    """Squared H^{-1} norm: |(-Lap)^{-1/2} f|^2."""
    out = np.sum(np.asarray(f, dtype=float) ** 2 / basis.eigenvalues, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


class AliasingError(ValueError):
    pass


def _dst_matrix(n_modes: int, grid_pts: int) -> np.ndarray:
    """sqrt(2) sin(pi k j / M) for k = 1..n, j = 1..M-1 (modes x nodes)."""
    k = np.arange(1, n_modes + 1)[:, None]
    j = np.arange(1, grid_pts)[None, :]
    return np.sqrt(2.0) * np.sin(np.pi * k * j / grid_pts)


@lru_cache(maxsize=None)
def _dst_pair(n_modes: int, grid_pts: int) -> tuple[tuple, tuple]:
    """(forward, inverse) contraction matrices, each as (left, right).

    The forward matrix T is modes x nodes; the inverse is T / M, since
    T @ T.T = M I on the band. ``left`` acts on a field axis from the left,
    ``right`` on the last axis from the right. All four are C-contiguous and
    read-only, as every caller shares them.
    """
    fwd = _dst_matrix(n_modes, grid_pts)
    inv = fwd / grid_pts
    mats = (np.ascontiguousarray(fwd.T), fwd, inv, np.ascontiguousarray(inv.T))
    for m in mats:
        m.flags.writeable = False
    return mats[:2], mats[2:]


def _contract(x: np.ndarray, batch: int, dim: int, left: np.ndarray,
              right: np.ndarray, out=None) -> np.ndarray:
    """Apply the one-axis map to each of the dim field axes of a contiguous
    x holding batch fields of n_in^dim values.

    Field axis a < dim-1 is a broadcast matmul with ``left`` on the view
    (batch * n_out^a, n_in, n_in^(dim-1-a)); the last axis is one GEMM of the
    (-1, n_in) view with ``right`` (at dim = 1 one row at a time: BLAS rounds
    a lone row differently from a GEMM row). Every view is a reshape of a
    contiguous array, so nothing is transposed or copied. Stage a writes into
    out[a] when ``out`` (from _stage_buffers) is given. Returns (-1, n_out).
    """
    n_out, n_in = left.shape
    if out is None:
        out = (None,) * dim
    if dim == 1:
        return np.matmul(x.reshape(batch, 1, n_in), right, out=out[0]).reshape(batch, n_out)
    for a in range(dim - 1):
        x = np.matmul(left, x.reshape(batch * n_out ** a, n_in, n_in ** (dim - 1 - a)),
                      out=out[a])
    return np.matmul(x.reshape(-1, n_in), right, out=out[-1])


def _stage_buffers(batch: int, dim: int, n_in: int, n_out: int) -> list[np.ndarray]:
    """Output arrays for the dim stages of _contract, in its shapes."""
    if dim == 1:
        return [np.empty((batch, 1, n_out))]
    return ([np.empty((batch * n_out ** a, n_out, n_in ** (dim - 1 - a))) for a in range(dim - 1)]
            + [np.empty((batch * n_out ** (dim - 1), n_out))])


def to_grid(basis: Basis, f: np.ndarray, grid_pts: int, out=None) -> np.ndarray:
    """Nodal values at the interior collocation nodes j/M, j = 1..M-1, per dim.

    Output shape is f.shape[:-1] + (M-1,)*dim; with ``out`` (stage buffers)
    it is a view of the last one.
    """
    if grid_pts < basis.modes_per_dim + 1:
        raise AliasingError("need grid_pts >= modes_per_dim + 1")
    f = np.ascontiguousarray(f, dtype=float)
    lead = f.shape[:-1]
    left, right = _dst_pair(basis.modes_per_dim, grid_pts)[0]
    vals = _contract(f, math.prod(lead), basis.dim, left, right, out)
    return vals.reshape(lead + (grid_pts - 1,) * basis.dim)


def from_grid(basis: Basis, values: np.ndarray, grid_pts: int, out=None) -> np.ndarray:
    """Project nodal values back onto the retained band (inverse of to_grid
    for band-limited fields); ``out`` as for to_grid."""
    if grid_pts < basis.modes_per_dim + 1:
        raise AliasingError("need grid_pts >= modes_per_dim + 1")
    values = np.ascontiguousarray(values, dtype=float)
    lead = values.shape[: values.ndim - basis.dim]
    left, right = _dst_pair(basis.modes_per_dim, grid_pts)[1]
    modal = _contract(values, math.prod(lead), basis.dim, left, right, out)
    return modal.reshape(lead + (basis.n_modes,))


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
    """Workspace of eval_nonlinearity_modal for fields of shape
    lead + (n_modes,): the to_grid stages, g on the grid, the from_grid
    stages (for g = 0, only an array for the result). The result is a view
    of the last array, so it holds only until the next call with the same
    workspace."""
    if spec.kind == "zero":
        return (), None, [np.empty(lead + (basis.n_modes,))]
    n, side, dim = basis.modes_per_dim, _quadrature_pts(basis) - 1, basis.dim
    batch = math.prod(lead)
    return (_stage_buffers(batch, dim, n, side), np.empty(lead + (side,) * dim),
            _stage_buffers(batch, dim, side, n))


_BLOCK_VALUES = 1 << 15  # grid values (256 KB) per row block of an allocating transform


def _in_row_blocks(basis: Basis, f: np.ndarray, M: int, on_grid, width: tuple) -> np.ndarray:
    """on_grid(values on the M-point nodes) of the fields of f, shaped
    f.shape[:-1] + width, taking the rows in blocks of at most _BLOCK_VALUES
    nodal values (at least one row); every row gets the bits it gets alone."""
    f = np.asarray(f, dtype=float)
    rows = f.reshape(-1, basis.n_modes)
    step = max(1, _BLOCK_VALUES // (M - 1) ** basis.dim)
    out = np.empty((rows.shape[0],) + width)
    for i in range(0, rows.shape[0], step):
        out[i:i + step] = on_grid(to_grid(basis, rows[i:i + step], M))
    return out.reshape(f.shape[:-1] + width)


def eval_nonlinearity_modal(spec: NonlinearitySpec, basis: Basis, f: np.ndarray,
                            work=None) -> np.ndarray:
    """Galerkin projection (g(u), phi_m) by collocation on the nodes j/M,
    M = 2N+1, per dimension: exact for polynomial g up to degree 3.

    Without ``work`` (from nonlinearity_work) every stage allocates, one row
    block at a time."""
    to, g, back = (None, None, None) if work is None else work
    if spec.kind == "zero":  # no transform
        if back is None:
            return np.zeros_like(np.asarray(f, dtype=float))
        back[-1].fill(0.0)
        return back[-1]
    M = _quadrature_pts(basis)
    if work is None:
        return _in_row_blocks(basis, f, M, lambda vals: from_grid(
            basis, eval_g_value(spec, vals), M), (basis.n_modes,))
    vals = to_grid(basis, f, M, to)
    return from_grid(basis, eval_g_value(spec, vals, g), M, back)


def integral_of_G(spec: NonlinearitySpec, basis: Basis, f: np.ndarray) -> np.ndarray | float:
    """(G(u), 1) by quadrature on the nodes j/M, M = 2N+1, per dimension:
    exact for G up to degree 4 (cubic g). One value per row of a batch,
    evaluated in row blocks."""
    if spec.kind == "zero":
        out = np.zeros(np.asarray(f).shape[:-1])
    else:
        M = _quadrature_pts(basis)
        out = _in_row_blocks(basis, f, M, lambda vals: integrate_grid(
            eval_g(spec, vals)[2], M, basis.dim), ())
    return float(out) if np.ndim(out) == 0 else out
