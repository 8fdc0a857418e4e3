import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrow import (
    CenteredMatrix,
    GramOverflow,
    NonFiniteInput,
    NumericalDegeneracyError,
    SingularTriple,
    ZeroMatrixError,
    center_rows,
    leading_singular_triple,
    rank_vector,
    residual_spectrum,
    spectral_extremes,
)
from permrow import matrix
from oracles import centering_oracle, jacobi_eigh, order_oracle
from strategies import SHAPES, gapped_matrix

RANK_ONE = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0]])


class TestCenterRows:
    def test_simple(self):
        c = center_rows([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
        np.testing.assert_allclose(c.values, [[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(c.row_means, [2.0, 4.0])

    def test_constant_matrix_centers_to_zero(self):
        c = center_rows(np.full((3, 5), 7.5))
        assert np.all(c.values == 0.0)
        np.testing.assert_allclose(c.row_means, 7.5)

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(5, 7))
        c = center_rows(y)
        np.testing.assert_allclose(c.values, centering_oracle(y), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(4, 6))
        c = center_rows(y)
        np.testing.assert_allclose(c.values + c.row_means[:, None], y, atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        c1 = center_rows(rng.normal(size=(6, 9)))
        c2 = center_rows(c1.values)
        np.testing.assert_allclose(c2.values, c1.values, atol=1e-12)
        np.testing.assert_allclose(c2.row_means, 0.0, atol=1e-12)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(14)
        y = rng.normal(size=(3, 50)) * 100
        c = center_rows(y)
        bound = 1e-10 * 50 * np.abs(y).max()
        assert np.abs(c.values.sum(axis=1)).max() <= bound

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            center_rows([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteInput):
            center_rows([[1.0, np.inf], [0.0, 1.0]])


class TestPow2Scaled:
    """``_pow2_scaled(x, top)`` leaves x alone inside [2**-100, 2**100] and
    otherwise divides it, exactly, by the power of two just above ``top``."""

    X = np.array([3.0, -0.5, 7.25])

    @pytest.mark.parametrize(
        "top", [2.0**-100, 2.0**100, 1.0, 0.0, np.inf, np.nan],
        ids=["2^-100", "2^100", "1", "0", "inf", "nan"],
    )
    def test_returns_x_itself(self, top):
        scaled, e = matrix._pow2_scaled(self.X, top)
        assert scaled is self.X and e == 0

    @pytest.mark.parametrize(
        "top",
        [np.nextafter(2.0**100, np.inf), np.nextafter(2.0**-100, 0.0), 2.0**600, 1e-300, 5e-324],
        ids=["past-2^100", "below-2^-100", "2^600", "1e-300", "subnormal"],
    )
    def test_scales_past_the_band(self, top):
        x = np.array([top, -top, top / 4, 0.0])
        scaled, e = matrix._pow2_scaled(x, top)
        assert 2.0 ** (e - 1) <= top < 2.0**e
        assert scaled.tobytes() == np.ldexp(x, -e).tobytes()
        assert 0.5 <= np.abs(scaled).max() < 1.0


class TestLeadingSingularTriple:
    def test_closed_form_rank_one(self):
        t = leading_singular_triple(RANK_ONE)
        assert t.lam == pytest.approx(np.sqrt(10), abs=1e-12)
        np.testing.assert_allclose(t.v, np.array([-1, 0, 1]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(t.u, np.array([1, 2]) / np.sqrt(5), atol=1e-12)
        assert t.converged

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrixError):
            leading_singular_triple(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["wide", "tall"])
    def test_gram_overflow_raises(self, shape):
        # sigma_1 = 1e308 * sqrt(6) exceeds the largest double
        x = np.full(shape, 1e308)
        with pytest.raises(GramOverflow):
            leading_singular_triple(x)
        with pytest.raises(GramOverflow):
            residual_spectrum(x, k=2)

    @pytest.mark.parametrize("shape", [(6, 40), (40, 6)], ids=["wide", "tall"])
    @pytest.mark.parametrize("scale", [2.0**500, 2.0**-500, 1e200, 1e-160, 1e-163])
    def test_extreme_scale_equivariance(self, shape, scale):
        # entries far from 1 would overflow the Gram product or leave it subnormal
        x = center_rows(np.random.default_rng(27).normal(size=shape)).values
        t1 = leading_singular_triple(x)
        t2 = leading_singular_triple(scale * x)
        assert t2.lam == pytest.approx(scale * t1.lam, rel=1e-12)
        np.testing.assert_allclose(t2.u, t1.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t2.v, t1.v, rtol=0, atol=1e-12)
        assert t2.converged
        lam1, resid = residual_spectrum(x, k=4)
        lam1_s, resid_s = residual_spectrum(scale * x, k=4)
        assert lam1_s == pytest.approx(scale * lam1, rel=1e-12)
        assert resid_s == pytest.approx(scale * resid, rel=1e-12)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(21)
        x = center_rows(rng.normal(size=(10, 50))).values
        t = leading_singular_triple(x)
        evals, evecs = jacobi_eigh(x @ x.T)
        lam_oracle = np.sqrt(evals[0])
        u_oracle = evecs[:, 0]
        v_oracle = x.T @ u_oracle / lam_oracle
        assert abs(t.lam - lam_oracle) <= 1e-8 * lam_oracle
        assert abs(t.u @ u_oracle) >= 1 - 1e-8
        assert abs(t.v @ v_oracle) >= 1 - 1e-8

    def test_unit_norms_and_residual(self):
        rng = np.random.default_rng(22)
        x = center_rows(rng.normal(size=(8, 30))).values
        t = leading_singular_triple(x)
        assert abs(np.linalg.norm(t.u) - 1) <= 1e-10
        assert abs(np.linalg.norm(t.v) - 1) <= 1e-10
        assert np.linalg.norm(x @ t.v - t.lam * t.u) <= 1e-10 * (t.lam + 1)

    def test_v_orthogonal_to_ones(self):
        rng = np.random.default_rng(23)
        t = leading_singular_triple(center_rows(rng.normal(size=(6, 40))))
        assert abs(t.v.sum()) <= 1e-10

    def test_spectrum_invariant_under_column_permutation(self):
        rng = np.random.default_rng(24)
        y = rng.normal(size=(7, 25)) + np.outer(rng.uniform(1, 2, 7), np.sort(rng.normal(size=25)))
        t = leading_singular_triple(center_rows(y))
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(25)
            tp = leading_singular_triple(center_rows(y[:, perm]))
            assert abs(tp.lam - t.lam) <= 1e-10 * t.lam
            aligned = tp.v if tp.v @ t.v[perm] > 0 else -tp.v
            np.testing.assert_allclose(aligned, t.v[perm], atol=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(25)
        x = center_rows(rng.normal(size=(5, 20))).values
        t1 = leading_singular_triple(x)
        t2 = leading_singular_triple(3.5 * x)
        assert t2.lam == pytest.approx(3.5 * t1.lam, rel=1e-10)
        np.testing.assert_allclose(t2.u, t1.u, atol=1e-9)
        np.testing.assert_allclose(t2.v, t1.v, atol=1e-9)

    def test_proposition_monotone_v_and_row_directions(self):
        # noiseless row-monotone matrices with mixed directions: up to one
        # joint flip s of (u, v), the leading right singular vector is
        # nondecreasing and sgn(u_i) encodes each row's direction
        rng = np.random.default_rng(26)
        for _ in range(20):
            n, p = 6, 15
            eta = np.sort(rng.normal(size=p))
            eta -= eta.mean()
            zeta = np.sort(rng.normal(size=p))
            zeta -= zeta.mean()
            slopes = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            weights = rng.uniform(0.0, 0.3, n)
            theta = slopes[:, None] * (eta[None, :] + weights[:, None] * zeta[None, :])
            theta += rng.uniform(0, 6, n)[:, None]
            t = leading_singular_triple(center_rows(theta))
            s = 1.0 if t.v[-1] >= t.v[0] else -1.0
            assert np.all(np.diff(s * t.v) >= -1e-10)
            assert np.all(np.sign(s * t.u) == np.sign(slopes))

    def test_row_majority_sign(self):
        # all slopes positive -> sum of projections nonnegative
        rng = np.random.default_rng(27)
        a = rng.uniform(0.5, 2.0, 5)
        eta = np.sort(rng.normal(size=12))
        eta -= eta.mean()
        x = np.outer(a, eta)
        t = leading_singular_triple(x)
        assert (x @ t.v).sum() >= 0
        assert np.all(t.u > 0)

    @pytest.mark.parametrize("negate", [False, True], ids=["x", "minus-x"])
    @pytest.mark.parametrize("transpose", [False, True], ids=["wide", "tall"])
    def test_exact_tie_orients_first_nonzero_v_negative(self, negate, transpose):
        # sum_i (Xv)_i is exactly 0 here, so the row sums leave the sign open;
        # X and -X share the Gram matrix, so one of them needs the flip
        x = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]])
        x = -x if negate else x
        x = x.T if transpose else x
        t = leading_singular_triple(x)
        assert float((x @ t.v).sum()) == 0.0
        v = np.array([-1.0, 1.0, 0.0])[: x.shape[1]] / np.sqrt(2)
        np.testing.assert_allclose(t.v, v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x @ t.v, t.lam * t.u, rtol=0, atol=1e-12)

    def test_multiplicity_warning_on_tied_spectrum(self):
        x = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, -1.0],
            ]
        )  # two singular values, both sqrt(2)
        t = leading_singular_triple(x)
        assert t.multiplicity_warning

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)], ids=["wide", "tall"])
    def test_against_numpy_svd(self, shape):
        # wide takes the Gram matrix on the row side, tall on the column side
        rng = np.random.default_rng(28)
        x = center_rows(rng.normal(size=shape)).values
        t = leading_singular_triple(x)
        u_svd, s_svd, vt_svd = np.linalg.svd(x, full_matrices=False)
        assert t.lam == pytest.approx(s_svd[0], rel=1e-12)
        assert abs(t.u @ u_svd[:, 0]) == pytest.approx(1.0, abs=1e-9)
        assert abs(t.v @ vt_svd[0]) == pytest.approx(1.0, abs=1e-9)
        assert (x @ t.v).sum() > 0  # row-majority sign
        assert t.converged
        assert t.iterations == 1
        assert not t.multiplicity_warning


def _without_lapack(monkeypatch):
    """Make the dsyevr lookup find nothing, so the eigensolve falls back to eigh."""
    monkeypatch.setattr(matrix, "_dsyevr", lambda: None)


TIED = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])  # singular values sqrt(2), sqrt(2)


class TestEigensolverParity:
    """The dsyevr top-k solve against the np.linalg.eigh fallback."""

    @pytest.mark.parametrize(
        "shape", [(12, 40), (40, 12), (150, 1000)], ids=["wide", "tall", "grid"]
    )
    @pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500], ids=["1", "2^500", "2^-500"])
    def test_same_triple(self, shape, scale, monkeypatch):
        rng = np.random.default_rng(31)
        signal = np.outer(rng.uniform(0.0, 3.0, shape[0]), np.linspace(-1.0, 1.0, shape[1]))
        x = scale * center_rows(signal + rng.normal(size=shape)).values
        _, gram, _ = matrix._short_gram(x)
        mus, s = matrix._top_eigenpairs(gram.copy(), 2)
        t = leading_singular_triple(x)
        _without_lapack(monkeypatch)
        mus_ref, s_ref = matrix._top_eigenpairs(gram.copy(), 2)
        ref = leading_singular_triple(x)
        np.testing.assert_allclose(mus, mus_ref, rtol=1e-12)
        assert abs(s @ s_ref) == pytest.approx(1.0, abs=1e-12)
        assert t.lam == pytest.approx(ref.lam, rel=1e-12)
        assert t.u @ ref.u == pytest.approx(1.0, abs=1e-12)  # same sign, too
        assert t.v @ ref.v == pytest.approx(1.0, abs=1e-12)
        assert (t.converged, t.multiplicity_warning) == (ref.converged, ref.multiplicity_warning)
        assert t.converged and not t.multiplicity_warning

    @pytest.mark.parametrize("x", [TIED, TIED.T], ids=["wide", "tall"])
    @pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500], ids=["1", "2^500", "2^-500"])
    def test_tied_spectrum(self, x, scale, monkeypatch):
        # any unit vector of the tied pair is a top eigenvector, so only the
        # values and the warning can be compared
        x = scale * x
        _, gram, _ = matrix._short_gram(x)
        mus, _ = matrix._top_eigenpairs(gram.copy(), 2)
        t = leading_singular_triple(x)
        _without_lapack(monkeypatch)
        mus_ref, _ = matrix._top_eigenpairs(gram.copy(), 2)
        ref = leading_singular_triple(x)
        np.testing.assert_allclose(mus, mus_ref, rtol=1e-12)
        assert t.lam == pytest.approx(ref.lam, rel=1e-12)
        assert t.lam == pytest.approx(scale * np.sqrt(2.0), rel=1e-12)
        assert t.multiplicity_warning and ref.multiplicity_warning
        assert t.converged and ref.converged

    def test_one_row(self):
        # a one-row CenteredMatrix is refused as a one-row array is, so every
        # Gram matrix has a side of at least 2
        with pytest.raises(ValueError) as array_error:
            leading_singular_triple(np.ones((1, 3)))
        with pytest.raises(ValueError) as record_error:
            CenteredMatrix(values=np.array([[1.0, 2.0, 2.0]]), row_means=np.zeros(1))
        assert str(record_error.value) == str(array_error.value)

    def test_lapack_found_where_numpy_links_scipy_openblas(self):
        """Guards against a suite that runs only the eigh fallback."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in str(
            blas.get("openblas configuration")
        ):
            pytest.skip("numpy does not link the ILP64 scipy-openblas")
        assert matrix._dsyevr() is not None

    @pytest.mark.parametrize(
        "shape",
        [(12, 40), (40, 12), (150, 1000), (500, 2000)],
        ids=["wide", "tall", "grid", "large"],
    )
    @pytest.mark.parametrize("scale", [1.0, 2.0**500, 2.0**-500], ids=["1", "2^500", "2^-500"])
    @pytest.mark.parametrize("k", ["2", "min"])
    def test_same_residual_spectrum(self, shape, scale, k, monkeypatch):
        # not row-centred, so that no eigenvalue of the tall Gram matrix is
        # zero up to roundoff, whose square root would differ by solver
        rng = np.random.default_rng(32)
        signal = np.outer(rng.uniform(0.0, 3.0, shape[0]), np.linspace(-1.0, 1.0, shape[1]))
        x = scale * (signal + rng.normal(size=shape))
        k = 2 if k == "2" else min(shape)
        got = residual_spectrum(x, k)
        _without_lapack(monkeypatch)
        np.testing.assert_allclose(got, residual_spectrum(x, k), rtol=1e-12)

    def test_failed_solve_raises(self, monkeypatch):
        # an info != 0 from LAPACK is an error, never a silent fallback
        def failing(*args):
            args[20]._obj.value = 3  # INFO

        monkeypatch.setattr(matrix, "_dsyevr", lambda: failing)
        with pytest.raises(NumericalDegeneracyError, match="info=3"):
            leading_singular_triple(RANK_ONE)
        with pytest.raises(NumericalDegeneracyError, match="info=3"):
            residual_spectrum(RANK_ONE, k=2)


class TestTripleRecord:
    """What the solve measured (lam2, residual) and the flags derived from it."""

    def test_stored_fields(self):
        names = [f.name for f in dataclasses.fields(SingularTriple)]
        assert names == ["lam", "u", "v", "lam2", "residual"]

    def test_flags_follow_the_measurements_at_their_boundaries(self):
        u, v, tol = np.array([1.0]), np.array([0.6, 0.8]), matrix.DEFAULT_TOL
        # at lam = 3, tol * (lam + 1) = 4 tol exactly: a residual there converges
        edge = 4.0 * tol
        for residual, converged in [(0.0, True), (edge, True), (np.nextafter(edge, 1.0), False)]:
            t = SingularTriple(lam=3.0, u=u, v=v, lam2=0.0, residual=float(residual))
            assert t.converged is converged
        # at this lam, tol * lam is 2**-34 exactly, and so is lam - lam2 at the edge
        lam = 2.0**-34 / tol
        assert tol * lam == 2.0**-34
        edge = lam - 2.0**-34
        for lam2, warning in [(lam, True), (edge, True), (np.nextafter(edge, 0.0), False)]:
            t = SingularTriple(lam=lam, u=u, v=v, lam2=float(lam2), residual=0.0)
            assert t.multiplicity_warning is warning
        assert t.iterations == 1

    @settings(max_examples=60, deadline=None)
    @given(**SHAPES)
    def test_lam2_is_the_second_singular_value(self, n, p, seed, noise, exponent):
        x = center_rows(gapped_matrix(n, p, seed, noise, exponent)).values
        t = leading_singular_triple(x)
        s = np.ldexp(np.linalg.svd(np.ldexp(x, -exponent), compute_uv=False), exponent)
        # an eigenvalue of the Gram matrix is good to about eps * lam^2, so a
        # small lam2 (noise 0 leaves only roundoff) is good to about sqrt(eps) * lam
        assert t.lam2 == pytest.approx(s[1], rel=1e-9, abs=1e-6 * s[0])
        assert t.lam == pytest.approx(s[0], rel=1e-12)
        assert t.converged

    @settings(max_examples=60, deadline=None)
    @given(**SHAPES, tilt_seed=st.integers(0, 2**32 - 1))
    def test_residual_is_the_inexact_relation(self, n, p, seed, noise, exponent, tilt_seed):
        """With the top eigenvector tilted away from the solve's, the triple's
        residual is ||Xv - lam*u|| on the wide side and ||X^T u - lam*v|| on
        the tall one, recomputed here from X, u, v and lam."""
        x = center_rows(gapped_matrix(n, p, seed, noise, exponent)).values
        solve = matrix._top_eigenpairs

        def tilted(gram, k, vectors=True):
            mus, s = solve(gram, k, vectors)
            s = s + 1e-3 * np.random.default_rng(tilt_seed).normal(size=s.size)
            return mus, s / np.linalg.norm(s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix, "_top_eigenpairs", tilted)
            t = leading_singular_triple(x)
        x0, lam0 = np.ldexp(x, -exponent), np.ldexp(t.lam, -exponent)  # exact
        wide = np.linalg.norm(x0 @ t.v - lam0 * t.u)
        tall = np.linalg.norm(x0.T @ t.u - lam0 * t.v)
        inexact, exact = (wide, tall) if n <= p else (tall, wide)
        assert t.residual == pytest.approx(np.ldexp(inexact, exponent), rel=1e-8)
        assert exact <= 1e-12 * lam0


@settings(max_examples=120, deadline=None)
@given(**SHAPES)
def test_transpose_consistency(n, p, seed, noise, exponent):
    """The triple of X^T is (v, u) of the triple of X with the same lam; the
    two take the Gram matrix on opposite sides of the same data."""
    x = center_rows(gapped_matrix(n, p, seed, noise, exponent)).values
    t = leading_singular_triple(x)
    tt = leading_singular_triple(x.T)
    assert tt.lam == pytest.approx(t.lam, rel=1e-12)
    # X^T's row sums are X's column sums, near 0 after centring, so the
    # row-majority sign may orient the two differently; it flips (u, v) jointly
    sign = 1.0 if tt.u @ t.v > 0 else -1.0
    np.testing.assert_allclose(sign * tt.u, t.v, rtol=0, atol=1e-9)
    np.testing.assert_allclose(sign * tt.v, t.u, rtol=0, atol=1e-9)


@settings(max_examples=120, deadline=None)
@given(**SHAPES, perm_seed=st.integers(0, 2**32 - 1))
def test_column_permutation_invariance(n, p, seed, noise, exponent, perm_seed):
    """Permuting the columns permutes v and leaves theta_R, theta_L and the
    range of the spectral estimator where they were."""
    y = gapped_matrix(n, p, seed, noise, exponent)
    perm = np.random.default_rng(perm_seed).permutation(p)
    base = spectral_extremes(y)
    other = spectral_extremes(y[:, perm])
    atol = 1e-9 * np.abs(y).max()
    np.testing.assert_allclose(other.triple.v, base.triple.v[perm], rtol=0, atol=1e-9)
    np.testing.assert_allclose(other.theta_r, base.theta_r, rtol=0, atol=atol)
    np.testing.assert_allclose(other.theta_l, base.theta_l, rtol=0, atol=atol)
    np.testing.assert_allclose(other.range, base.range, rtol=0, atol=atol)


class TestRankVector:
    def test_basic(self):
        np.testing.assert_array_equal(rank_vector([0.3, 0.1, 0.2]), [1, 2, 0])

    def test_ties_left_to_right(self):
        np.testing.assert_array_equal(rank_vector([1.0, 1.0, 2.0]), [0, 1, 2])
        np.testing.assert_array_equal(rank_vector([2.0, 1.0, 1.0]), [1, 2, 0])

    def test_is_a_sorting_permutation(self):
        rng = np.random.default_rng(31)
        x = rng.integers(0, 40, size=120).astype(float)
        order = rank_vector(x)
        assert sorted(order) == list(range(120))
        assert (np.diff(x[order]) >= 0).all()

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(32)
        x = rng.integers(0, 50, size=200).astype(float)
        np.testing.assert_array_equal(rank_vector(x), order_oracle(x))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            rank_vector([1.0, np.nan])

    def test_order_is_the_int64_stable_argsort(self):
        x = np.random.default_rng(33).integers(0, 20, size=60).astype(float)
        order = rank_vector(x)
        assert type(order) is np.ndarray and order.dtype == np.int64
        np.testing.assert_array_equal(order, np.argsort(x, kind="stable"))


class TestResidualSpectrum:
    def test_rank_one_zero_residual(self):
        lam1, resid = residual_spectrum(RANK_ONE, k=2)
        assert lam1 == pytest.approx(np.sqrt(10), abs=1e-10)
        assert resid == pytest.approx(0.0, abs=1e-8)

    def test_constructed_two_singular_values(self):
        u1 = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        u2 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        v1 = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(20)
        v2 = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
        x = 3.0 * np.outer(u1, v1) + 1.0 * np.outer(u2, v2)
        lam1, resid = residual_spectrum(x, k=2)
        assert lam1 == pytest.approx(3.0, abs=1e-9)
        assert resid == pytest.approx(1.0, abs=1e-8)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(41)
        x = center_rows(rng.normal(size=(6, 20))).values
        lam1, resid = residual_spectrum(x, k=6)
        evals, _ = jacobi_eigh(x @ x.T)
        lams = np.sqrt(np.clip(evals, 0.0, None))
        assert lam1 == pytest.approx(lams[0], rel=1e-8)
        assert resid == pytest.approx(lams[1:6].sum(), rel=1e-8)

    def test_tall_against_jacobi_oracle(self):
        # p < n: the eigenvalues come from the p x p Gram matrix X^T X
        rng = np.random.default_rng(42)
        x = center_rows(rng.normal(size=(30, 7))).values
        lam1, resid = residual_spectrum(x, k=5)
        evals, _ = jacobi_eigh(x.T @ x)
        lams = np.sqrt(np.clip(evals, 0.0, None))
        assert lam1 == pytest.approx(lams[0], rel=1e-8)
        assert resid == pytest.approx(lams[1:5].sum(), rel=1e-8)

    def test_zero_matrix_raises(self):
        # both callers of _short_gram give the same message, on either side
        message = "^matrix has zero Frobenius norm; no direction defined$"
        for x in (np.zeros((3, 4)), np.full((4, 3), -0.0)):
            with pytest.raises(ZeroMatrixError, match=message):
                residual_spectrum(x, k=2)
            with pytest.raises(ZeroMatrixError, match=message):
                leading_singular_triple(x)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            residual_spectrum(RANK_ONE, k=3)
