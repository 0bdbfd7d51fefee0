import json

import numpy as np
import pytest

from rpdml.errors import DimensionMismatchError, InvariantViolationError
from rpdml.manifold import (
    EPS_PD,
    SpdMatrix,
    _fix_signs,
    eigendecompose,
    load_matrix_csv,
    load_matrix_json,
    logdet_divergence,
    logdet_divergence_gradient,
    matrix_from_json_dict,
    matrix_to_json_dict,
    retract,
    save_matrix_csv,
    save_matrix_json,
    spd_inverse,
)


def rand_spd(n, rng, lo=0.3, hi=3.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return SpdMatrix(q @ np.diag(rng.uniform(lo, hi, n)) @ q.T)


def divergence_oracle(w, w0):
    # Direct evaluation of tr(W inv(W0)) - logdet(W inv(W0)) - n.
    m = w @ np.linalg.inv(w0)
    return np.trace(m) - np.log(np.linalg.det(m)) - w.shape[0]


class TestSpdMatrix:
    def test_identity(self):
        eye = SpdMatrix.identity(3)
        assert eye.dim == 3
        assert np.array_equal(eye.mat, np.eye(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvariantViolationError):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvariantViolationError):
            SpdMatrix(np.diag([1.0, -0.5]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            SpdMatrix(np.ones((2, 3)))

    def test_entries_read_only(self):
        w = SpdMatrix.identity(2)
        with pytest.raises(ValueError):
            w.mat[0, 0] = 5.0

    def test_accepts_tiny_asymmetry(self):
        a = np.eye(2)
        a[0, 1] = 1e-12
        w = SpdMatrix(a)
        assert np.array_equal(w.mat, w.mat.T)


class TestEigendecompose:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=(5, 5))
            a = 0.5 * (a + a.T)
            eig = eigendecompose(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(eig.reconstruct() - a) <= 1e-8 * scale
            q = eig.eigenvectors
            assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-8
            assert np.all(np.diff(eig.eigenvalues) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(123)
        mats = [np.diag([3.0, 1.0])] + [
            0.5 * (m + m.T) for m in (rng.normal(size=(4, 4)) for _ in range(20))
        ]
        for a in mats:
            eig = eigendecompose(a)
            for j in range(a.shape[0]):
                col = eig.eigenvectors[:, j]
                nz = np.flatnonzero(col)
                assert col[nz[0]] > 0

    def test_fix_signs_matches_column_loop(self):
        # The per-column loop is the reference: flip a column when its first
        # nonzero entry is negative; all-zero columns stay as they are.
        def loop(vecs):
            for j in range(vecs.shape[1]):
                nz = np.flatnonzero(vecs[:, j])
                if nz.size and vecs[nz[0], j] < 0:
                    vecs[:, j] = -vecs[:, j]
            return vecs

        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            a[rng.random(a.shape) < 0.4] = 0.0
            a[:, rng.integers(0, a.shape[1])] = 0.0
            assert loop(a.copy()).tobytes() == _fix_signs(a.copy()).tobytes()


class TestLogdetDivergence:
    def test_identical_arguments_zero(self):
        eye = SpdMatrix.identity(2)
        assert logdet_divergence(eye, eye) == 0.0

    def test_hand_value(self):
        w = SpdMatrix(np.diag([2.0, 1.0]))
        w0 = SpdMatrix.identity(2)
        expected = divergence_oracle(w.mat, w0.mat)  # = 1 - ln(2)
        assert expected == pytest.approx(1.0 - np.log(2.0), abs=1e-12)
        assert logdet_divergence(w, w0) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance_fixed_factor(self):
        rng = np.random.default_rng(1)
        w, w0 = rand_spd(3, rng), rand_spd(3, rng)
        base = logdet_divergence(w, w0)
        scaled = logdet_divergence(w.scaled(3.7), w0.scaled(3.7))
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            w, w0 = rand_spd(4, rng), rand_spd(4, rng)
            d = logdet_divergence(w, w0)
            assert d >= 0.0
            if np.linalg.norm(w.mat - w0.mat) <= 1e-9:
                assert d <= 1e-9
            else:
                assert d > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            logdet_divergence(SpdMatrix.identity(2), SpdMatrix.identity(3))


class TestGradient:
    def test_zero_at_equal_points(self):
        rng = np.random.default_rng(3)
        w = rand_spd(3, rng)
        assert np.allclose(logdet_divergence_gradient(w, w), 0.0, atol=1e-12)

    def test_one_by_one(self):
        g = logdet_divergence_gradient(SpdMatrix(np.array([[2.0]])), SpdMatrix(np.array([[1.0]])))
        assert g == pytest.approx(np.array([[0.5]]))  # 1/1 - 1/2

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(5):
            w, w0 = rand_spd(4, rng), rand_spd(4, rng)
            grad = logdet_divergence_gradient(w, w0)
            fd = np.zeros((4, 4))
            for i in range(4):
                for j in range(4):
                    e = np.zeros((4, 4))
                    e[i, j] = h
                    fd[i, j] = (
                        divergence_oracle(w.mat + e, w0.mat)
                        - divergence_oracle(w.mat - e, w0.mat)
                    ) / (2 * h)
            rel = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
            assert rel <= 1e-5


class TestRetract:
    def test_zero_step(self):
        eye = SpdMatrix.identity(2)
        out = retract(eye, np.zeros((2, 2)))
        assert np.allclose(out.mat, np.eye(2), atol=1e-12)

    def test_clips_negative_eigenvalue(self):
        out = retract(SpdMatrix.identity(2), np.diag([-2.0, 0.0]))
        assert np.allclose(out.mat, np.diag([EPS_PD, 1.0]), rtol=0, atol=1e-10)

    def test_no_clip_when_inside_cone(self):
        rng = np.random.default_rng(6)
        w = rand_spd(3, rng, lo=1.0, hi=2.0)
        step = 0.01 * rng.normal(size=(3, 3))
        step = 0.5 * (step + step.T)
        out = retract(w, step)
        assert np.linalg.norm(out.mat - (w.mat + step)) <= 1e-8

    def test_output_always_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = rand_spd(4, rng)
            step = rng.normal(scale=2.0, size=(4, 4))
            step = 0.5 * (step + step.T)
            out = retract(w, step)
            assert np.min(np.linalg.eigvalsh(out.mat)) >= EPS_PD
            SpdMatrix(out.mat)  # re-validate the full invariant set

    def test_rejects_asymmetric_step(self):
        with pytest.raises(InvariantViolationError):
            retract(SpdMatrix.identity(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpdInverse:
    def test_diagonal(self):
        inv = spd_inverse(SpdMatrix(np.diag([2.0, 4.0])))
        assert np.allclose(inv.mat, np.diag([0.5, 0.25]), atol=1e-12)

    def test_identity(self):
        inv = spd_inverse(SpdMatrix.identity(3))
        assert np.allclose(inv.mat, np.eye(3), atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rand_spd(5, rng)
            inv = spd_inverse(w)
            assert np.linalg.norm(w.mat @ inv.mat - np.eye(5)) <= 1e-8 * 5

    def test_rejects_floor_violation(self):
        bad = SpdMatrix._trusted(np.diag([1.0, 1e-12]))
        with pytest.raises(InvariantViolationError):
            spd_inverse(bad)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        w = rand_spd(3, rng)
        obj = matrix_to_json_dict(w)
        assert obj["dim"] == 3 and len(obj["data"]) == 9
        back = matrix_from_json_dict(json.loads(json.dumps(obj)))
        assert np.array_equal(back.mat, w.mat)
        path = tmp_path / "w.json"
        save_matrix_json(w, path)
        assert np.array_equal(load_matrix_json(path).mat, w.mat)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        w = rand_spd(4, rng)
        path = tmp_path / "w.csv"
        save_matrix_csv(w, path)
        assert np.array_equal(load_matrix_csv(path).mat, w.mat)

    def test_json_rejects_bad_length(self):
        with pytest.raises(DimensionMismatchError):
            matrix_from_json_dict({"dim": 2, "data": [1.0, 2.0, 3.0]})
