"""Tests for the synthetic data generators."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tailcluster.core import ValidationError, truth_from_design
from tailcluster.simulate import (
    MODELS,
    SimModelSpec,
    build_scale_matrix,
    generate,
    sample_mv_cauchy,
)

# scipy is the independent distributional oracle for the generated
# marginals: |T_v| has CDF 2 t_v(x) - 1, Frechet(1/gamma) is invweibull
# with c = 1/gamma, and U^(-gamma) is Pareto with b = 1/gamma.


def abs_t_cdf(v):
    return lambda x: 2.0 * scipy.stats.t.cdf(x, df=v) - 1.0


def frechet_cdf(gamma):
    return lambda x: scipy.stats.invweibull.cdf(x, c=1.0 / gamma)


def pareto_cdf(gamma):
    return lambda x: scipy.stats.pareto.cdf(x, b=1.0 / gamma)


class StubStream:
    """Deterministic stand-in for a numpy Generator."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def standard_normal(self, size):
        block = np.asarray(self.blocks.pop(0), dtype=float)
        assert block.shape == tuple(np.atleast_1d(size))
        return block


class TestSimModelSpec:
    def test_p(self):
        spec = SimModelSpec(model="A", g=3, q=5, delta=0.5, n=10, seed=1)
        assert spec.p == 15

    def test_validation(self):
        good = dict(g=2, q=2, delta=0.5, n=10, seed=1)
        with pytest.raises(ValidationError):
            SimModelSpec(model="E", **good)
        with pytest.raises(ValidationError):
            SimModelSpec(model="A", g=0, q=2, delta=0.5, n=10, seed=1)
        with pytest.raises(ValidationError):
            SimModelSpec(model="A", g=2, q=2, delta=1.0, n=10, seed=1)
        with pytest.raises(ValidationError):
            SimModelSpec(model="A", g=2, q=2, delta=0.5, n=0, seed=1)
        with pytest.raises(ValidationError):
            SimModelSpec(model="A", g=2, q=2, delta=0.5, n=10, seed=-1)
        with pytest.raises(ValidationError):
            SimModelSpec(model="A", g=2, q=2, delta=0.5, n=10, seed=2**64)


class TestScaleMatrix:
    def test_model_b_p1(self):
        sigma = build_scale_matrix("B", 1)
        assert sigma.tolist() == [[1.0]]
        assert np.linalg.cholesky(sigma).tolist() == [[1.0]]

    def test_model_b_p2_hand_cholesky(self):
        sigma = build_scale_matrix("B", 2)
        assert sigma.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        want = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
        assert np.allclose(np.linalg.cholesky(sigma), want, atol=1e-15)

    def test_model_c_equicorrelation(self):
        sigma = build_scale_matrix("C", 3)
        want = np.full((3, 3), 0.5)
        np.fill_diagonal(want, 1.0)
        assert sigma.tolist() == want.tolist()

    def test_model_d_alternating(self):
        sigma = build_scale_matrix("D", 3)
        want = [[1.0, -0.5, 0.25], [-0.5, 1.0, -0.5], [0.25, -0.5, 1.0]]
        assert sigma.tolist() == want

    @pytest.mark.parametrize("model", ["B", "C", "D"])
    def test_reconstruction_up_to_p150(self, model):
        sigma = build_scale_matrix(model, 150)
        chol = np.linalg.cholesky(sigma)
        assert np.max(np.abs(chol @ chol.T - sigma)) <= 1e-10

    def test_independent_models_rejected(self):
        with pytest.raises(ValidationError):
            build_scale_matrix("A", 3)


class TestSampleMvCauchy:
    def test_stubbed_stream_exact(self):
        sigma = build_scale_matrix("B", 2)
        stub = StubStream([np.ones((3, 2)), np.full(3, 2.0)])
        rows = sample_mv_cauchy(sigma, 3, stub)
        want_row = np.array([1.0, 0.5 + math.sqrt(0.75)]) / 2.0
        assert np.array_equal(rows, np.tile(want_row, (3, 1)))

    def test_sign_flip_oddness(self):
        sigma = build_scale_matrix("B", 3)
        z = np.random.default_rng(9).standard_normal((5, 3))
        w = np.random.default_rng(10).standard_normal(5)
        plus = sample_mv_cauchy(sigma, 5, StubStream([z, w]))
        minus = sample_mv_cauchy(sigma, 5, StubStream([-z, w]))
        assert np.array_equal(minus, -plus)

    def test_marginals_standard_cauchy(self):
        sigma = build_scale_matrix("B", 3)
        rng = np.random.Generator(np.random.Philox(7))
        rows = sample_mv_cauchy(sigma, 100_000, rng)
        for j in range(3):
            stat = scipy.stats.kstest(rows[:, j], scipy.stats.cauchy.cdf)
            assert stat.pvalue > 0.01

    def test_domain(self):
        sigma = build_scale_matrix("B", 2)
        with pytest.raises(ValidationError):
            sample_mv_cauchy(sigma, 0, StubStream([]))


# First row of generate(SimModelSpec(model, g=3, q=2, delta=0.3, n=5,
# seed=2024)).values per model. The gammas 1, 0.7 and 0.49 take the
# closed-form (v=1) and the Newton Student-t quantile paths.
_STREAM_PINS = {
    "A": [0.4526769016319899, 1.4664133425471872, 0.057270953268230215,
          1.5369515614568168, 1.1942279397330933, 0.6484983891688315],
    "B": [0.1870169659967918, 1.518474747609105, 0.8833795685611974,
          0.628483657181837, 0.18879948705858435, 0.36176538724914065],
    "C": [0.1870169659967918, 1.518474747609105, 0.7160903141806955,
          0.4272751926973267, 0.45821271327132457, 0.7314228860490803],
    "D": [0.1870169659967918, 1.3314577816123137, 0.39543613418844437,
          0.8660522667515923, 0.5345428287889883, 0.1838088279782446],
    "A_F": [0.7650724511356485, 2.0847377595625605, 0.4380636559091885,
            2.0056844657438746, 1.5036367285221293, 1.0692352671035545],
    "B_F": [1.2219422495463352, 0.593335984298447, 0.7959339679140955,
            2.015081748838747, 1.318697184124759, 1.0105790920414193],
    "EXACT_PARETO": [3.6953148249268963, 1.6155519099192717, 9.73844096565997,
                     1.2956295907913342, 1.2375669739222073, 1.5333086227028407],
}


@pytest.mark.parametrize("model", MODELS)
def test_generator_stream_pinned(model):
    """The generated values of a fixed spec do not move.

    rtol=1e-12 absorbs last-ulp differences between libm or SIMD builds
    but catches any change to the random stream or the draw order. A
    change that alters the stream on purpose (such as drawing the
    copula in survival space) must update these pins and bump the
    generator version.
    """
    spec = SimModelSpec(model=model, g=3, q=2, delta=0.3, n=5, seed=2024)
    data, _ = generate(spec)
    np.testing.assert_allclose(data.values[0], _STREAM_PINS[model], rtol=1e-12, atol=0)


class TestGenerate:
    @pytest.mark.parametrize("model", MODELS)
    def test_deterministic_and_positive(self, model):
        spec = SimModelSpec(model=model, g=2, q=3, delta=0.5, n=50, seed=42)
        data1, truth1 = generate(spec)
        data2, truth2 = generate(spec)
        assert np.array_equal(data1.values, data2.values)
        assert np.array_equal(truth1.group_of, truth2.group_of)
        assert np.array_equal(truth1.gammas, truth2.gammas)
        assert np.all(data1.values > 0.0)
        assert data1.column_labels == tuple(f"V{j}" for j in range(1, 7))

    def test_truth_matches_design(self):
        spec = SimModelSpec(model="A", g=3, q=2, delta=0.4, n=20, seed=5)
        _, truth = generate(spec)
        want = truth_from_design(3, 2, 0.4)
        assert truth.group_of.tolist() == want.group_of.tolist()
        assert truth.gammas.tolist() == want.gammas.tolist()

    def test_seed_changes_data(self):
        a, _ = generate(SimModelSpec(model="A", g=1, q=2, delta=0.5, n=30, seed=1))
        b, _ = generate(SimModelSpec(model="A", g=1, q=2, delta=0.5, n=30, seed=2))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("gamma_idx,gamma", [(0, 1.0), (1, 0.5), (2, 0.25)])
    def test_model_a_marginals(self, gamma_idx, gamma):
        # column gamma_idx*q+1 of a g=3 design has tail index gamma
        spec = SimModelSpec(model="A", g=3, q=1, delta=0.5, n=60_000, seed=11)
        data, truth = generate(spec)
        assert truth.gammas[gamma_idx] == gamma
        col = data.column(gamma_idx + 1)
        stat = scipy.stats.kstest(col, abs_t_cdf(1.0 / gamma))
        assert stat.pvalue > 0.01

    @pytest.mark.parametrize("model", ["B", "C", "D"])
    def test_copula_model_marginals(self, model):
        spec = SimModelSpec(model=model, g=2, q=1, delta=0.5, n=60_000, seed=13)
        data, truth = generate(spec)
        for j, gamma in ((1, 1.0), (2, 0.5)):
            stat = scipy.stats.kstest(data.column(j), abs_t_cdf(1.0 / gamma))
            assert stat.pvalue > 0.01, f"column {j}"

    def test_frechet_model_marginals(self):
        for model, seed in (("A_F", 17), ("B_F", 19)):
            spec = SimModelSpec(model=model, g=2, q=1, delta=0.5, n=60_000, seed=seed)
            data, _ = generate(spec)
            for j, gamma in ((1, 1.0), (2, 0.5)):
                stat = scipy.stats.kstest(data.column(j), frechet_cdf(gamma))
                assert stat.pvalue > 0.01, f"{model} column {j}"

    def test_exact_pareto_marginals(self):
        spec = SimModelSpec(
            model="EXACT_PARETO", g=2, q=1, delta=0.75, n=60_000, seed=23
        )
        data, _ = generate(spec)
        for j, gamma in ((1, 1.0), (2, 0.25)):
            stat = scipy.stats.kstest(data.column(j), pareto_cdf(gamma))
            assert stat.pvalue > 0.01

    def test_copula_and_independent_share_marginals(self):
        # same gamma, different dependence: one-column laws must agree
        a, _ = generate(SimModelSpec(model="A", g=1, q=1, delta=0.5, n=40_000, seed=3))
        b, _ = generate(SimModelSpec(model="B", g=1, q=1, delta=0.5, n=40_000, seed=4))
        stat = scipy.stats.ks_2samp(a.column(1), b.column(1))
        assert stat.pvalue > 0.01

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_valid_output(self, seed):
        spec = SimModelSpec(model="EXACT_PARETO", g=2, q=2, delta=0.5, n=25, seed=seed)
        data, truth = generate(spec)
        assert data.values.shape == (25, 4)
        assert np.all(np.isfinite(data.values))
        assert np.all(data.values > 0.0)
