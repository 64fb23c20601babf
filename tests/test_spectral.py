import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import kwavelab as kw
from kwavelab import spectral
from kwavelab.spectral import (AliasingError, Basis, ModalState, _dst_matrix,
                               dual_norm_sq, eval_nonlinearity_modal, from_grid,
                               integral_of_G, integrate_grid, nonlinearity_work,
                               to_grid)


def mode_field(basis, index, amp=1.0):
    f = np.zeros(basis.n_modes)
    f[index] = amp
    return f


class TestBasis:
    def test_eigenvalues_d1(self):
        b = Basis(1, 4)
        assert np.allclose(b.eigenvalues, np.pi ** 2 * np.array([1, 4, 9, 16]))

    def test_lambda1_is_min(self):
        for d in (1, 2, 3):
            b = Basis(d, 3)
            assert b.lambda1 == pytest.approx(d * np.pi ** 2)
            assert b.lambda1 == pytest.approx(np.min(b.eigenvalues))

    def test_enumeration_fixed(self):
        b = Basis(2, 2)
        assert [tuple(m) for m in b.multi_indices] == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestNorms:
    def test_grad_norm_zero_field(self):
        b = Basis(1, 8)
        assert kw.grad_norm_sq(b, np.zeros(8)) == 0.0

    def test_grad_norm_mode1_quadrature_oracle(self):
        # integral of |d/dx sqrt(2) sin(pi x)|^2 over (0,1)
        oracle, _ = quad(lambda x: 2.0 * (np.pi * np.cos(np.pi * x)) ** 2, 0, 1)
        b = Basis(1, 8)
        assert kw.grad_norm_sq(b, mode_field(b, 0)) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(np.pi ** 2, rel=1e-12)

    def test_grad_norm_mode3_amp2(self):
        oracle, _ = quad(lambda x: (2.0 * math.sqrt(2) * 3 * np.pi * np.cos(3 * np.pi * x)) ** 2, 0, 1)
        b = Basis(1, 8)
        assert kw.grad_norm_sq(b, mode_field(b, 2, amp=2.0)) == pytest.approx(oracle, rel=1e-10)
        assert oracle == pytest.approx(36 * np.pi ** 2, rel=1e-10)

    def test_xt_norm_zero_state(self):
        b = Basis(1, 8)
        st0 = kw.zero_state(b)
        assert kw.xt_norm_sq(b, st0, kw.EpsilonProfile()) == 0.0

    def test_xt_norm_velocity_only(self):
        b = Basis(1, 8)
        state = ModalState(np.zeros(8), mode_field(b, 0), 0.0)
        eps2 = kw.EpsilonProfile(kind="constant", alpha=2.0)
        assert kw.xt_norm_sq(b, state, eps2) == pytest.approx(2.0, rel=1e-14)

    def test_xt_norm_displacement_only(self):
        b = Basis(1, 8)
        state = ModalState(mode_field(b, 0), np.zeros(8), 0.0)
        assert kw.xt_norm_sq(b, state, kw.EpsilonProfile()) == pytest.approx(np.pi ** 2, rel=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_xt_norm_batched_equals_rows_bitwise(self, d):
        # one value per row, each the bits of the single-state call and of
        # the spelled-out sums the ledger and the absorbing check used
        b = Basis(d, 5)
        eps = kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.5, amplitude=0.7)
        e, _ = kw.eval_epsilon(eps, 0.3)
        rng = np.random.default_rng(d)
        for rows in (1, 7, 257):
            us, vs = rng.standard_normal((2, rows, b.n_modes))
            batched = kw.xt_norm_sq(b, ModalState(us, vs, 0.3), eps)
            assert isinstance(batched, np.ndarray) and batched.shape == (rows,)
            summed = np.sum(b.eigenvalues * us ** 2, axis=1) + e * np.sum(vs ** 2, axis=1)
            assert np.array_equal(batched, summed)
            for i in range(rows):
                single = kw.xt_norm_sq(b, ModalState(us[i], vs[i], 0.3), eps)
                assert isinstance(single, float) and single == batched[i]
                assert single == kw.grad_norm_sq(b, us[i]) + e * kw.norm_sq(vs[i])

    def test_poincare_inequality(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            b = Basis(d, 4)
            fields = rng.standard_normal((1000, b.n_modes))
            lhs = b.lambda1 * np.sum(fields ** 2, axis=1)
            rhs = np.sum(b.eigenvalues * fields ** 2, axis=1)
            assert np.all(lhs <= rhs * (1 + 1e-12))


class TestLaplacianOps:
    def test_dual_norm(self):
        b = Basis(1, 4)
        assert dual_norm_sq(b, mode_field(b, 0)) == pytest.approx(1.0 / np.pi ** 2, rel=1e-14)


def reference_to_grid(basis, f, m):
    """One tensordot per field axis, each moved back into place."""
    lead = f.shape[:-1]
    n = basis.modes_per_dim
    vals = f.reshape(lead + (n,) * basis.dim)
    T = _dst_matrix(n, m)
    for axis in range(basis.dim):
        vals = np.moveaxis(np.tensordot(vals, T, axes=([len(lead) + axis], [0])),
                           -1, len(lead) + axis)
    return vals


def reference_from_grid(basis, values, m):
    lead = values.shape[: values.ndim - basis.dim]
    T = _dst_matrix(basis.modes_per_dim, m) / m
    out = values
    for axis in range(basis.dim):
        out = np.moveaxis(np.tensordot(out, T, axes=([len(lead) + axis], [1])),
                          -1, len(lead) + axis)
    return out.reshape(lead + (basis.n_modes,))


class TestTransforms:
    @pytest.mark.parametrize("dim,n,m", [(1, 8, 16), (2, 5, 10), (3, 4, 8)])
    def test_roundtrip_identity(self, dim, n, m):
        rng = np.random.default_rng(dim)
        b = Basis(dim, n)
        f = rng.standard_normal(b.n_modes)
        back = from_grid(b, to_grid(b, f, m), m)
        assert np.max(np.abs(back - f)) < 1e-10

    def test_single_mode_nodal_values(self):
        b = Basis(1, 8)
        vals = to_grid(b, mode_field(b, 2), 16)
        x = np.arange(1, 16) / 16.0
        assert np.allclose(vals, math.sqrt(2) * np.sin(3 * np.pi * x), atol=1e-12)

    def test_zero_field(self):
        b = Basis(2, 4)
        assert not to_grid(b, np.zeros(16), 8).any()

    def test_aliasing_guard(self):
        b = Basis(1, 8)
        with pytest.raises(AliasingError):
            to_grid(b, np.zeros(8), 8)

    def test_batch_dimension(self):
        rng = np.random.default_rng(5)
        b = Basis(2, 4)
        f = rng.standard_normal((7, b.n_modes))
        vals = to_grid(b, f, 8)
        assert vals.shape == (7, 7, 7)
        back = from_grid(b, vals, 8)
        assert np.max(np.abs(back - f)) < 1e-10

    @pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3)])
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    def test_matches_tensordot_reference(self, dim, n, lead):
        rng = np.random.default_rng([dim, n, len(lead)])
        b = Basis(dim, n)
        for m in (2 * n, 2 * n + 1):
            f = rng.standard_normal(lead + (b.n_modes,))
            vals = to_grid(b, f, m)
            ref = reference_to_grid(b, f, m)
            assert vals.shape == ref.shape == lead + (m - 1,) * dim
            assert np.max(np.abs(vals - ref)) <= 1e-14 * np.max(np.abs(ref))
            nodal = rng.standard_normal(ref.shape)
            back = from_grid(b, nodal, m)
            ref = reference_from_grid(b, nodal, m)
            assert back.shape == ref.shape == lead + (b.n_modes,)
            assert np.max(np.abs(back - ref)) <= 1e-14 * np.max(np.abs(ref))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        b = Basis(1, 8)
        f = rng.standard_normal(8)
        vals = to_grid(b, f, 16)
        grid_norm = integrate_grid(vals ** 2, 16, 1)
        assert grid_norm == pytest.approx(kw.norm_sq(f), rel=1e-8)


class TestNonlinearityModal:
    def test_zero_g(self):
        b = Basis(1, 8)
        out = kw.eval_nonlinearity_modal(kw.NonlinearitySpec.zero(), b, np.ones(8))
        assert not out.any()

    @pytest.mark.parametrize("g", [kw.NonlinearitySpec.zero(), kw.NonlinearitySpec.cubic_soft(),
                                   kw.NonlinearitySpec.lipschitz_sine()], ids=lambda g: g.kind)
    @pytest.mark.parametrize("dim,n,lead", [(1, 8, ()), (1, 8, (3,)), (2, 5, (3,)), (3, 4, (2,)),
                                            (3, 6, (40,))])  # 40 rows: three row blocks
    def test_workspace_gives_the_allocating_bits(self, g, dim, n, lead):
        b = Basis(dim, n)
        f = np.random.default_rng(dim).standard_normal(lead + (b.n_modes,))
        f0 = f.copy()
        work = nonlinearity_work(g, b, lead)
        want = eval_nonlinearity_modal(g, b, f)
        for _ in range(2):  # a reused workspace gives the same bits again
            assert np.array_equal(eval_nonlinearity_modal(g, b, f, work), want)
        assert np.array_equal(f, f0)

    @pytest.mark.parametrize("g", [kw.NonlinearitySpec.cubic_soft(),
                                   kw.NonlinearitySpec.lipschitz_sine()], ids=lambda g: g.kind)
    def test_row_blocks_give_every_row_its_own_bits(self, g):
        # 40 rows of Basis(3, 6) hold 40 * 12^3 grid values: three row blocks
        b = Basis(3, 6)
        f = np.random.default_rng(6).standard_normal((2, 20, b.n_modes))
        assert f[..., 0].size * 12 ** 3 > 2 * spectral._BLOCK_VALUES
        G = integral_of_G(g, b, f)
        N = eval_nonlinearity_modal(g, b, f)
        assert G.shape == (2, 20) and N.shape == f.shape
        for i, j in np.ndindex(2, 20):
            assert G[i, j] == integral_of_G(g, b, f[i, j])
            assert np.array_equal(N[i, j], eval_nonlinearity_modal(g, b, f[i, j]))

    def test_allocating_transforms_keep_a_bounded_peak(self):
        # 1000 rows at d = 3 need 13.8 MB for one whole-batch grid array;
        # the row blocks keep every temporary below PEAK_BOUND
        PEAK_BOUND = 4_000_000
        b, g = Basis(3, 6), kw.NonlinearitySpec.cubic_soft()
        f = np.random.default_rng(7).standard_normal((1000, b.n_modes))

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: to_grid(b, f, 13)) > PEAK_BOUND
        assert peak(lambda: integral_of_G(g, b, f)) < PEAK_BOUND
        assert peak(lambda: eval_nonlinearity_modal(g, b, f)) < PEAK_BOUND

    def test_cubic_single_mode_quadrature_oracle(self):
        # project -(sqrt(2) sin(2 pi x))^3 on each retained mode by quadrature
        b = Basis(1, 8)
        out = kw.eval_nonlinearity_modal(kw.NonlinearitySpec.cubic_soft(), b, mode_field(b, 1))
        for m in range(8):
            oracle, _ = quad(lambda x: -(math.sqrt(2) * np.sin(2 * np.pi * x)) ** 3
                             * math.sqrt(2) * np.sin((m + 1) * np.pi * x), 0, 1,
                             limit=200)
            assert out[m] == pytest.approx(oracle, abs=1e-9)

    def test_integral_of_G_quadrature_oracle(self):
        b = Basis(1, 8)
        f = mode_field(b, 0, amp=1.3)
        oracle, _ = quad(lambda x: -0.25 * (1.3 * math.sqrt(2) * np.sin(np.pi * x)) ** 4, 0, 1)
        assert integral_of_G(kw.NonlinearitySpec.cubic_soft(), b, f) == pytest.approx(oracle, rel=1e-10)


def midpoint_projection(basis, f, cells):
    """Galerkin projection of the soft cubic g(u) = -u^3 and (G(u), 1) by the
    midpoint rule on `cells` cells per dimension. Each integrand is a cosine
    polynomial of wavenumber <= 4N per dimension, which the rule integrates
    exactly once cells > 2N."""
    x = (np.arange(cells) + 0.5) / cells
    k = np.arange(1, basis.modes_per_dim + 1)
    S = math.sqrt(2.0) * np.sin(np.pi * np.outer(k, x))  # modes x nodes
    phi = S
    for _ in range(basis.dim - 1):
        phi = np.einsum("ai,bj->abij", phi, S).reshape(phi.shape[0] * S.shape[0], -1)
    u = f @ phi
    weight = 1.0 / cells ** basis.dim
    return weight * (phi @ -u ** 3), weight * np.sum(-0.25 * u ** 4)


class TestGalerkinExactness:
    """The nonlinearity is the exact Galerkin projection for cubic g."""

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    @pytest.mark.parametrize("data", ["top_mode", "random"])
    def test_cubic_matches_midpoint_oracle(self, dim, n, data):
        b = Basis(dim, n)
        if data == "top_mode":
            f = mode_field(b, b.n_modes - 1)
        else:
            f = np.random.default_rng([dim, n]).standard_normal(b.n_modes)
        proj, G_int = midpoint_projection(b, f, 4 * n)
        spec = kw.NonlinearitySpec.cubic_soft()
        out = eval_nonlinearity_modal(spec, b, f)
        assert np.max(np.abs(out - proj)) <= 1e-13 * np.max(np.abs(proj))
        assert integral_of_G(spec, b, f) == pytest.approx(G_int, rel=1e-13, abs=0.0)
