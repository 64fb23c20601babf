import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwavelab as kw
from kwavelab.model import (NONLINEARITY_KINDS, EpsilonProfile, ForcingSpec,
                            NonlinearitySpec, eval_epsilon, eval_g, eval_G, eval_g_value,
                            eval_h, forcing_norm_sq, validate_hypotheses,
                            weighted_tail_integral)


class TestEpsilon:
    def test_constant(self):
        prof = EpsilonProfile(kind="constant", alpha=1.0)
        assert eval_epsilon(prof, 0.0) == (1.0, 0.0)
        assert eval_epsilon(prof, 123.4) == (1.0, 0.0)

    def test_exp_decay_at_zero(self):
        prof = EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=1.0)
        assert eval_epsilon(prof, 0.0) == (2.0, -1.0)

    def test_exp_decay_closed_form(self):
        # independent evaluation of alpha + a e^{-t} at t = ln 4
        prof = EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=1.0)
        val, der = eval_epsilon(prof, math.log(4.0))
        assert val == pytest.approx(1.25, abs=1e-15)
        assert der == pytest.approx(-0.25, abs=1e-15)

    def test_derivative_matches_finite_difference(self):
        prof = EpsilonProfile(kind="exp_decay_to_limit", alpha=1.2, amplitude=0.7)
        rng = np.random.default_rng(0)
        for t in rng.uniform(-2.0, 10.0, size=200):
            h = 1e-6
            fd = (eval_epsilon(prof, t + h)[0] - eval_epsilon(prof, t - h)[0]) / (2 * h)
            assert eval_epsilon(prof, t)[1] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            EpsilonProfile(alpha=0.5)

    def test_bound_below_alpha_rejected(self):
        with pytest.raises(ValueError):
            EpsilonProfile(alpha=2.0, bound=1.5)


class TestNonlinearity:
    def test_cubic_at_zero(self):
        assert eval_g(NonlinearitySpec("cubic_soft"), 0.0) == (0.0, 0.0, 0.0)

    def test_cubic_symbolic(self):
        # g = -u^3, g' = -3u^2, G = -u^4/4 at u = 2
        g, gp, G = eval_g(NonlinearitySpec("cubic_soft", coeff=1.0), 2.0)
        assert (g, gp, G) == (-8.0, -12.0, -4.0)

    def test_sine_at_pi(self):
        g, gp, G = eval_g(NonlinearitySpec("lipschitz_sine", coeff=1.0), math.pi)
        assert g == pytest.approx(0.0, abs=1e-15)
        assert gp == pytest.approx(-1.0, abs=1e-15)
        assert G == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("spec", [NonlinearitySpec("cubic_soft", coeff=0.8),
                                      NonlinearitySpec("lipschitz_sine", coeff=1.5)])
    def test_G_antiderivative_of_g(self, spec):
        # central finite difference of G matches g at 1e4 random points
        rng = np.random.default_rng(42)
        u = rng.uniform(-6.0, 6.0, size=10_000)
        h = 1e-5
        _, _, G_hi = eval_g(spec, u + h)
        _, _, G_lo = eval_g(spec, u - h)
        fd = (G_hi - G_lo) / (2 * h)
        g, _, _ = eval_g(spec, u)
        scale = np.maximum(np.abs(g), 1.0)
        assert np.max(np.abs(fd - g) / scale) < 1e-6


    @pytest.mark.parametrize("spec", [NonlinearitySpec("zero"),
                                      NonlinearitySpec("cubic_soft", coeff=0.7),
                                      NonlinearitySpec("lipschitz_sine", coeff=1.3)])
    def test_audited_g_is_the_stepped_g(self, spec):
        u = np.linspace(-3.0, 3.0, 101)
        assert np.array_equal(eval_g(spec, u)[0], eval_g_value(spec, u))

    @pytest.mark.parametrize("spec", [NonlinearitySpec("zero"),
                                      NonlinearitySpec("cubic_soft", coeff=0.7),
                                      NonlinearitySpec("lipschitz_sine", coeff=1.3)])
    def test_g_is_its_factor_times_the_unscaled_value(self, spec):
        u = np.linspace(-3.0, 3.0, 101)
        unscaled = eval_g_value(spec, u, unscaled=True)
        assert spec.factor == {"zero": 0.0, "cubic_soft": -0.7, "lipschitz_sine": 1.3}[spec.kind]
        assert np.array_equal(spec.factor * unscaled, eval_g_value(spec, u))

    @pytest.mark.parametrize("spec", [NonlinearitySpec("zero"),
                                      NonlinearitySpec("cubic_soft", coeff=0.7),
                                      NonlinearitySpec("lipschitz_sine", coeff=1.3)],
                             ids=lambda g: g.kind)
    @pytest.mark.parametrize("shape", [(40,), (5, 40)], ids=["row", "batch"])
    def test_G_in_place_gives_the_bits_of_a_copy(self, spec, shape):
        u = np.random.default_rng(7).uniform(-3.0, 3.0, size=shape)
        want = eval_G(spec, u.copy())
        got = eval_G(spec, u, out=u, scratch=np.empty_like(u))
        assert got is u and np.array_equal(u, want)

    def test_G_of_a_scalar(self):
        assert eval_G(NonlinearitySpec("cubic_soft", coeff=1.0), 2.0) == -4.0
        assert eval_G(NonlinearitySpec("lipschitz_sine", coeff=1.0), 0.0) == 0.0


class TestForcing:
    def test_zero(self):
        h = eval_h(ForcingSpec(kind="zero"), 8, 0.0)
        assert h.shape == (8,) and not h.any()

    def test_separable_at_kink(self):
        # e^{-beta|t|} peaks at the kink t = 0, on the declared mode only
        h = eval_h(ForcingSpec(kind="separable", amplitude=1.0, rate=1.0, mode=1), 8, 0.0)
        assert h[0] == 1.0
        assert not h[1:].any()

    def test_separable_closed_form(self):
        for t in (2.0, -2.0):
            h = eval_h(ForcingSpec(kind="separable", amplitude=2.0, rate=0.5, mode=1), 8, t)
            assert h[0] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    def test_mode_outside_basis(self):
        with pytest.raises(ValueError):
            eval_h(ForcingSpec(kind="separable", mode=9), 8, 0.0)

    def test_norm_sq(self):
        spec = ForcingSpec(kind="separable", amplitude=3.0, rate=1.0)
        assert forcing_norm_sq(spec, 0.0) == 9.0
        assert forcing_norm_sq(spec, 1.0) == pytest.approx(9.0 * math.exp(-2.0), rel=1e-14)


class TestArrayTimes:
    """The closed forms in t take an array of times and give, entry by entry,
    the bits of the scalar calls (which use math.exp, not np.exp)."""

    TIMES = np.random.default_rng(11).uniform(-10.0, 30.0, 400)

    @pytest.mark.parametrize("prof", [EpsilonProfile(kind="constant", alpha=1.5),
                                      EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0,
                                                     amplitude=0.7)], ids=lambda p: p.kind)
    def test_epsilon(self, prof):
        eps, der = eval_epsilon(prof, self.TIMES)
        assert eps.shape == der.shape == self.TIMES.shape
        want = np.array([eval_epsilon(prof, float(t)) for t in self.TIMES])
        assert np.array_equal(eps, want[:, 0]) and np.array_equal(der, want[:, 1])

    @pytest.mark.parametrize("spec", [ForcingSpec(kind="zero"),
                                      ForcingSpec(kind="separable", amplitude=1.3, rate=0.7,
                                                  mode=3)], ids=lambda h: h.kind)
    def test_forcing(self, spec):
        h = eval_h(spec, 8, self.TIMES)
        assert h.shape == (self.TIMES.size, 8)
        assert np.array_equal(h, [eval_h(spec, 8, float(t)) for t in self.TIMES])
        norm = forcing_norm_sq(spec, self.TIMES)
        assert norm.shape == self.TIMES.shape
        assert np.array_equal(norm, [forcing_norm_sq(spec, float(t)) for t in self.TIMES])

    def test_scalar_times_give_floats(self):
        prof = EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.7)
        spec = ForcingSpec(kind="separable", amplitude=1.3, rate=0.7)
        for t in (0.25, np.float64(0.25)):
            assert all(type(x) is float for x in eval_epsilon(prof, t))
            assert type(forcing_norm_sq(spec, t)) is float
            assert eval_h(spec, 8, t).shape == (8,)


def failed_names(report):
    return [c.name for c in report.checks if not c.passed]


class TestValidateHypotheses:
    def test_trivial_model_all_pass(self):
        rep = validate_hypotheses(kw.ModelSpec(lam=1.0))
        assert rep.all_passed, failed_names(rep)

    def test_cubic_gamma2_dissipative(self):
        # u g - gamma G = -u^4/2 < 0 for u != 0, so the ratio check passes
        spec = kw.ModelSpec(g=NonlinearitySpec("cubic_soft", gamma=2.0))
        rep = validate_hypotheses(spec)
        check = {c.name: c for c in rep.checks}["g_dissipative_ratio"]
        assert check.passed and check.sampled
        assert check.margin > 0

    def test_sine_preset_passes(self):
        spec = kw.ModelSpec(g=NonlinearitySpec("lipschitz_sine", coeff=1.0))
        rep = validate_hypotheses(spec)
        assert rep.all_passed, failed_names(rep)

    def test_separable_forcing_tail(self):
        spec = kw.ModelSpec(h=ForcingSpec(kind="separable", amplitude=1.0,
                                                 rate=0.5, sigma=1.0))
        rep = validate_hypotheses(spec)
        assert rep.all_passed, failed_names(rep)

    @pytest.mark.parametrize("rate", [0.8, 0.5, 0.2], ids=["sigma<2beta", "sigma=2beta",
                                                           "sigma>2beta"])
    def test_tail_differences_match_quadrature(self, rate):
        # the tail check's partial integrals, against adaptive quadrature split at s = 0
        from scipy.integrate import quad

        h = ForcingSpec(kind="separable", amplitude=1.3, rate=rate, sigma=1.0)

        def integrand(s):
            return math.exp(h.sigma * s) * forcing_norm_sq(h, s)

        for a, b in ((-80.0, 10.0), (-20.0, -1.0), (0.5, 4.0)):
            want = sum(quad(integrand, lo, hi, limit=200)[0]
                       for lo, hi in ((a, min(b, 0.0)), (max(a, 0.0), b)) if lo < hi)
            got = weighted_tail_integral(h, h.sigma, b) - weighted_tail_integral(h, h.sigma, a)
            assert got == pytest.approx(want, rel=1e-10)

    def test_forcing_tail_long_horizon_passes(self):
        # sigma = 2 beta: e^(sigma s) |h(s)|^2 = 1 for s > 0, so the tail up to
        # t = 800 is 800.5, and the T0 = 40 and 80 integrals agree to every bit
        spec = kw.ModelSpec(h=ForcingSpec(kind="separable", amplitude=1.0, rate=0.5, sigma=1.0))
        check = validate_hypotheses(spec, t_range=(0.0, 800.0)).checks[-1]
        assert check.name == "forcing_tail" and check.passed
        assert check.margin == 1e-8 * 800.5

    @pytest.mark.parametrize("amplitude,t_end", [(1.0, 800.0), (1e5, 352.0)],
                             ids=["exp_overflows", "product_overflows"])
    def test_forcing_tail_overflow_raises(self, amplitude, t_end):
        # sigma - 2 beta = 2: e^(2 t) overflows past t = 355, and A^2 e^(2 t)
        # at t = 352 for A = 1e5
        spec = kw.ModelSpec(h=ForcingSpec(kind="separable", amplitude=amplitude, rate=0.5,
                                          sigma=3.0))
        assert validate_hypotheses(spec, t_range=(0.0, 300.0)).all_passed
        with pytest.raises(OverflowError):
            validate_hypotheses(spec, t_range=(0.0, t_end))

    def test_increasing_epsilon_fails_monotonicity(self):
        spec = kw.ModelSpec(epsilon=EpsilonProfile(
            kind="exp_decay_to_limit", alpha=1.0, amplitude=-0.5))
        rep = validate_hypotheses(spec)
        assert "epsilon_monotone" in failed_names(rep)

    def test_deterministic(self):
        spec = kw.ModelSpec(g=NonlinearitySpec("cubic_soft"))
        a = validate_hypotheses(spec).to_dict()
        b = validate_hypotheses(spec).to_dict()
        assert a == b

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            validate_hypotheses(kw.ModelSpec(), t_range=(1.0, 1.0))
        with pytest.raises(ValueError):
            validate_hypotheses(kw.ModelSpec(), t_range=(2.0, 1.0))

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_presets_always_validate(self, kind, c, a):
        # every kind's preset constants pass its own audit
        spec = kw.ModelSpec(g=NonlinearitySpec(kind, coeff=c),
                            epsilon=EpsilonProfile(kind="exp_decay_to_limit",
                                                   alpha=1.0, amplitude=a))
        assert validate_hypotheses(spec).all_passed


class TestModelSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            kw.ModelSpec(delta=-0.1)
        with pytest.raises(ValueError):
            kw.Basis(4, 2)
        with pytest.raises(ValueError):
            kw.ModelSpec(lam=-1.0)

    def test_default_growth_exponent(self):
        assert kw.ModelSpec().sobolev_p == 4.0
