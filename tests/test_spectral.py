import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import kwavelab as kw
from kwavelab import spectral
from kwavelab.model import eval_g_value
from kwavelab.spectral import (Basis, ModalState, _dst_matrix,
                               dual_norm_sq, empty_aligned, eval_nonlinearity_modal, from_grid,
                               integral_of_G, integrate_grid, nonlinearity_work,
                               to_grid)
from oracles import midpoint_projection, to_grid_first_to_last, zero_state


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

    def test_mode_labels(self):
        assert Basis(1, 3).mode_labels() == ["1", "2", "3"]
        labels = Basis(2, 11).mode_labels()
        assert labels[:2] == ["1-1", "1-2"] and labels[10] == "1-11" and labels[-1] == "11-11"
        assert Basis(3, 2).mode_labels()[-2:] == ["2-2-1", "2-2-2"]


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
        st0 = zero_state(b)
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_xt_scale_makes_the_xt_norm_euclidean(self, d):
        # (sqrt(mu), sqrt(eps)) with the bits of the square roots taken one by one
        b = Basis(d, 5)
        eps = kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.5, amplitude=0.7)
        e, _ = kw.eval_epsilon(eps, 0.3)
        scale_u, scale_v = spectral.xt_scale(b, e)
        assert np.array_equal(scale_u, np.sqrt(b.eigenvalues))
        assert scale_v == np.sqrt(np.full(1, e))[0] == math.sqrt(e)
        us, vs = np.random.default_rng(d).standard_normal((2, 9, b.n_modes))
        coords = np.concatenate([us * scale_u, vs * scale_v], axis=1)
        assert np.allclose(np.sum(coords ** 2, axis=1),
                           kw.xt_norm_sq(b, ModalState(us, vs, 0.3), eps), rtol=1e-14, atol=0)

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

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 6)])
    def test_last_axis_first_order(self, dim, n):
        # to_grid runs the last axis first; the first-to-last order it
        # replaced is the reference
        b, M = Basis(dim, n), 2 * n + 1
        f = np.random.default_rng([dim, n]).standard_normal((64, b.n_modes))
        vals = to_grid(b, f, M)
        ref = to_grid_first_to_last(b, f, M)
        assert vals.shape == ref.shape == (64,) + (M - 1,) * dim
        assert np.max(np.abs(vals - ref)) <= 1e-14 * np.max(np.abs(ref))
        for i in (0, 17, 63):
            assert np.array_equal(to_grid(b, f[i], M), vals[i])
            assert np.array_equal(to_grid(b, f[i:i + 1], M)[0], vals[i])
        assert np.max(np.abs(from_grid(b, vals, M) - f)) <= 1e-13 * np.max(np.abs(f))

    @staticmethod
    def stages(lead):
        """(op, a, b, out) of every stage of a d = 3, N = 6 cubic plan for
        fields of shape lead + (216,), to_grid's then from_grid's."""
        to, _, back = nonlinearity_work(kw.NonlinearitySpec("cubic_soft"), Basis(3, 6), lead)
        return [s for plan in (to, back) for s in (plan.head,) + plan.tail]

    def test_one_product_stages_run_np_dot(self):
        # one field: the two GEMMs and the two broadcast stages with one
        # leading row are one small 2-D product each (np.dot); the stages
        # with 6 leading rows stay broadcasts (np.matmul)
        stages = self.stages(())
        assert [op for op, *_ in stages] == [np.dot, np.matmul, np.dot] * 2
        for op, _, _, out in stages:
            assert out.shape[0] == 6 and out.ndim == 3 if op is np.matmul else out.ndim == 2
        # 64 fields: every product is a broadcast or has more than 2^12 outputs
        assert {op for op, *_ in self.stages((64,))} == {np.matmul}

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 6)])
    def test_rows_keep_their_bits_across_the_dot_threshold(self, dim, n):
        # batches 1, 2, 3 and 64 bind np.dot and np.matmul on different
        # stages; every row gets the bits of the batch-1 plan
        b, g = Basis(dim, n), kw.NonlinearitySpec("cubic_soft")
        M = 2 * n + 1
        f = np.random.default_rng([dim, n]).standard_normal((64, b.n_modes))
        one = [eval_nonlinearity_modal(g, b, row, nonlinearity_work(g, b, ())) for row in f]
        grid = [to_grid(b, row, M) for row in f]
        for batch in (1, 2, 3, 64):
            got = eval_nonlinearity_modal(g, b, f[:batch], nonlinearity_work(g, b, (batch,)))
            vals = to_grid(b, f[:batch], M)
            back = from_grid(b, vals, M)
            for i in range(batch):
                assert np.array_equal(got[i], one[i])
                assert np.array_equal(vals[i], grid[i])
                assert np.array_equal(back[i], from_grid(b, grid[i], M))

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
        out = kw.eval_nonlinearity_modal(kw.NonlinearitySpec("zero"), b, np.ones(8))
        assert not out.any()

    @pytest.mark.parametrize("g", [kw.NonlinearitySpec("zero"), kw.NonlinearitySpec("cubic_soft"),
                                   kw.NonlinearitySpec("lipschitz_sine")], ids=lambda g: g.kind)
    @pytest.mark.parametrize("dim,n,lead", [(1, 8, ()), (1, 8, (3,)), (2, 5, (3,)), (3, 4, (2,)),
                                            (3, 6, (40,))]  # 40 rows: three row blocks
                             + [(dim, n, lead) for dim, n in [(1, 8), (2, 5), (3, 4)]
                                for lead in [(), (1,), (7,), (64,), (2, 3)]
                                if (dim, lead) != (1, ())])
    def test_workspace_gives_the_allocating_bits(self, g, dim, n, lead):
        # one plan, fed the two arrays of a ping-pong pair in turn as the
        # stepping loop feeds it, against the allocating path on each
        b = Basis(dim, n)
        rng = np.random.default_rng(dim)
        pair = [rng.standard_normal(lead + (b.n_modes,)) for _ in range(2)]
        kept = [f.copy() for f in pair]
        want = [eval_nonlinearity_modal(g, b, f) for f in pair]
        work = nonlinearity_work(g, b, lead)
        for i in range(5):
            assert np.array_equal(eval_nonlinearity_modal(g, b, pair[i % 2], work), want[i % 2])
        assert all(np.array_equal(f, f0) for f, f0 in zip(pair, kept))

    @pytest.mark.parametrize("g", [kw.NonlinearitySpec("cubic_soft", coeff=0.7),
                                   kw.NonlinearitySpec("cubic_soft"),
                                   kw.NonlinearitySpec("lipschitz_sine", coeff=1.3),
                                   kw.NonlinearitySpec("lipschitz_sine")],
                             ids=lambda g: f"{g.kind}-{g.coeff}")
    @pytest.mark.parametrize("dim,n,lead", [(1, 8, ()), (2, 5, (7,)), (3, 4, (3,))])
    def test_factor_on_the_inverse_matrix(self, g, dim, n, lead):
        # g's factor multiplies the inverse map's last matrix, not the grid
        # values: roundoff against the factor applied on the grid, and g's
        # own bits where the factor is +-1
        b, M = Basis(dim, n), 2 * n + 1
        f = np.random.default_rng(dim).standard_normal(lead + (b.n_modes,))
        unfolded = from_grid(b, eval_g_value(g, to_grid(b, f, M)), M)
        got = eval_nonlinearity_modal(g, b, f)
        assert np.array_equal(eval_nonlinearity_modal(g, b, f, nonlinearity_work(g, b, lead)),
                              got)
        assert np.max(np.abs(got - unfolded)) <= 1e-14 * np.max(np.abs(unfolded))
        if abs(g.factor) == 1.0:
            assert np.array_equal(got, unfolded)

    @pytest.mark.parametrize("g", [kw.NonlinearitySpec("cubic_soft"),
                                   kw.NonlinearitySpec("lipschitz_sine")], ids=lambda g: g.kind)
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

    def test_a_call_without_a_plan_binds_one_per_block_shape(self, monkeypatch):
        # 40 rows of Basis(3, 6) go in row blocks of 18, 18 and 4 rows
        b, g = Basis(3, 6), kw.NonlinearitySpec("cubic_soft")
        f = np.random.default_rng(6).standard_normal((40, b.n_modes))
        plans, maps = [], []
        work, contraction = spectral.nonlinearity_work, spectral._Contraction
        monkeypatch.setattr(spectral, "nonlinearity_work",
                            lambda *args: plans.append(args[2]) or work(*args))
        monkeypatch.setattr(spectral, "_Contraction",
                            lambda *args, **kws: maps.append(args[1]) or contraction(*args, **kws))
        eval_nonlinearity_modal(g, b, f)
        assert plans == [(18,), (4,)]
        maps.clear()
        integral_of_G(g, b, f)
        assert maps == [18, 4]  # to_grid's map, once per block shape

    def test_a_zero_g_plan_is_one_zero_array_that_no_step_writes(self, monkeypatch):
        from kwavelab import integrator
        b, zero = Basis(2, 5), kw.NonlinearitySpec("zero")
        plans = []
        monkeypatch.setattr(integrator, "_workspace", type(integrator._workspace)())  # empty
        monkeypatch.setattr(integrator, "nonlinearity_work",
                            lambda *args: plans.append(nonlinearity_work(*args)) or plans[-1])
        us = np.random.default_rng(3).standard_normal((4, b.n_modes)) / b.eigenvalues
        kw.evolve_ensemble(us, np.zeros_like(us), kw.ModelSpec(delta=0.3, g=zero), b,
                           0.0, 0.1, 1e-2)
        [(_, _, back)] = plans
        assert back.shape == us.shape and not back.any()
        for f in (us, 2.0 * us):
            assert eval_nonlinearity_modal(zero, b, f, plans[0]) is back

    @pytest.mark.parametrize("g", [kw.NonlinearitySpec("cubic_soft"),
                                   kw.NonlinearitySpec("lipschitz_sine")], ids=lambda g: g.kind)
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    def test_integral_of_G_is_the_G_of_eval_g(self, g, dim, n):
        # one batch over one and a half row blocks, against eval_g's G on the
        # whole batch's grid at once
        b = Basis(dim, n)
        M = 2 * n + 1
        rows = 3 * (spectral._BLOCK_VALUES // (M - 1) ** dim) // 2
        f = np.random.default_rng(dim).standard_normal((rows, b.n_modes))
        want = integrate_grid(kw.eval_g(g, to_grid(b, f, M))[2], M, dim)
        assert np.array_equal(integral_of_G(g, b, f), want)

    def test_allocating_transforms_keep_a_bounded_peak(self):
        # 1000 rows at d = 3 need 13.8 MB for one whole-batch grid array;
        # the row blocks keep every temporary below PEAK_BOUND
        PEAK_BOUND = 4_000_000
        b, g = Basis(3, 6), kw.NonlinearitySpec("cubic_soft")
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
        out = kw.eval_nonlinearity_modal(kw.NonlinearitySpec("cubic_soft"), b, mode_field(b, 1))
        for m in range(8):
            oracle, _ = quad(lambda x: -(math.sqrt(2) * np.sin(2 * np.pi * x)) ** 3
                             * math.sqrt(2) * np.sin((m + 1) * np.pi * x), 0, 1,
                             limit=200)
            assert out[m] == pytest.approx(oracle, abs=1e-9)

    def test_integral_of_G_quadrature_oracle(self):
        b = Basis(1, 8)
        f = mode_field(b, 0, amp=1.3)
        oracle, _ = quad(lambda x: -0.25 * (1.3 * math.sqrt(2) * np.sin(np.pi * x)) ** 4, 0, 1)
        assert integral_of_G(kw.NonlinearitySpec("cubic_soft"), b,
                             f) == pytest.approx(oracle, rel=1e-10)


KINDS = [kw.NonlinearitySpec("cubic_soft"), kw.NonlinearitySpec("lipschitz_sine")]


class TestArenas:
    """A plan's stage buffers and g's grid are the turns of two grid-sized
    arenas: each writes the start of the one its input is not in."""

    @pytest.fixture
    def made(self, monkeypatch):
        """Every array that empty_aligned makes from here on."""
        made = []
        monkeypatch.setattr(spectral, "empty_aligned",
                            lambda shape: made.append(empty_aligned(shape)) or made[-1])
        return made

    @staticmethod
    def stages(plan):
        """(input, output) of every stage of a _Contraction: the head reads
        src (None: the caller's array), a later stage its writable operand."""
        io = [(plan.src, plan.head[-1])]
        for _, a, b, out in plan.tail:
            io.append((a if a.flags.writeable else b, out))
        return io

    @pytest.mark.parametrize("g", KINDS, ids=lambda g: g.kind)
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (64,)])
    def test_each_stage_writes_the_arena_its_input_is_not_in(self, made, g, dim, n, lead):
        b = Basis(dim, n)
        size = math.prod(lead) * (2 * n) ** dim
        to, grid, back = nonlinearity_work(g, b, lead)
        assert [m.shape for m in made] == [(size,)] * 2
        io = self.stages(to) + [(to.result, grid)] + self.stages(back)
        assert io[0][0] is None and len(io) == 2 * dim + 1
        for x, out in io:
            assert x is None or not np.shares_memory(x, out)
            [base] = [m for m in made if np.shares_memory(out, m)]
            assert out.ctypes.data == base.ctypes.data  # the arena's start
        assert not np.shares_memory(grid, to.result)
        assert np.shares_memory(back.result, io[-1][1])

    @pytest.mark.parametrize("g", KINDS, ids=lambda g: g.kind)
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (64,)])
    def test_a_plan_fed_its_own_result_gives_the_bits_of_a_copy(self, g, dim, n, lead):
        # the result sits where the next call's first stage writes, so numpy
        # reads the input through a copy
        b = Basis(dim, n)
        f = np.random.default_rng(dim).standard_normal(lead + (b.n_modes,))
        work = nonlinearity_work(g, b, lead)
        want = eval_nonlinearity_modal(g, b, eval_nonlinearity_modal(g, b, f, work).copy(),
                                       work).copy()
        res = eval_nonlinearity_modal(g, b, f, work)
        assert np.shares_memory(res, work[0].head[-1])
        assert np.array_equal(eval_nonlinearity_modal(g, b, res, work), want)

    def test_integral_of_G_binds_two_grids_per_block_shape(self, made):
        # 40 rows of Basis(3, 6) go in row blocks of 18, 18 and 4 rows
        b, g = Basis(3, 6), kw.NonlinearitySpec("cubic_soft")
        f = np.random.default_rng(6).standard_normal((40, b.n_modes))
        integral_of_G(g, b, f)
        assert [m.shape for m in made] == [(18 * 12 ** 3,)] * 2 + [(4 * 12 ** 3,)] * 2


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
        spec = kw.NonlinearitySpec("cubic_soft")
        out = eval_nonlinearity_modal(spec, b, f)
        assert np.max(np.abs(out - proj)) <= 1e-13 * np.max(np.abs(proj))
        assert integral_of_G(spec, b, f) == pytest.approx(G_int, rel=1e-13, abs=0.0)
