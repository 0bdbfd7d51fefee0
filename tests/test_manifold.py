import json
import re

import numpy as np
import pytest

from rpdml import manifold as manifold_module
from rpdml.errors import ConfigError, DimensionMismatchError, InvariantViolationError
from rpdml.manifold import (
    EPS_PD,
    SpdMatrix,
    eigendecompose,
    logdet_divergence,
    retract,
    retract_array,
    spd_inverse,
    spd_logdet,
)
from rpdml.metric import MetricModel
from rpdml.solver import RunTrace


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

    def test_rejects_empty(self):
        with pytest.raises(InvariantViolationError, match="at least 1 x 1"):
            SpdMatrix(np.zeros((0, 0)))

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
        # The retraction rebuilds V diag(vals) V^T; above the floor it clips
        # nothing, so it gives the matrix back.
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=(5, 5))
            a = 0.5 * (a + a.T)
            vals, vecs = eigendecompose(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm((vecs * vals) @ vecs.T - a) <= 1e-8 * scale
            assert np.linalg.norm(vecs.T @ vecs - np.eye(5)) <= 1e-8
            assert np.all(np.diff(vals) >= -1e-12)
            shifted = a + (1.0 - vals[0]) * np.eye(5)  # min eigenvalue 1
            assert np.linalg.norm(retract_array(shifted) - shifted) <= 1e-8 * (scale + 1.0 - vals[0])

    def test_rebuild_ignores_column_signs(self, monkeypatch):
        rng = np.random.default_rng(123)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        want = retract_array(a)

        def flipped(m):
            vals, vecs = eigendecompose(m)
            return vals, vecs * np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0])

        monkeypatch.setattr(manifold_module, "eigendecompose", flipped)
        assert retract_array(a).tobytes() == want.tobytes()


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
        scaled = logdet_divergence(SpdMatrix(w.mat * 3.7), SpdMatrix(w0.mat * 3.7))
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

    @pytest.mark.parametrize("fn", [spd_inverse, spd_logdet])
    def test_failed_cholesky_is_an_invariant_violation(self, fn):
        with pytest.raises(InvariantViolationError, match="Cholesky failed"):
            fn(SpdMatrix._trusted(np.diag([1.0, -1.0])))


class TestSerialization:
    """The model file stores W and W0 as row-major entry lists beside ``dim``."""

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        w, w0 = rand_spd(3, rng), rand_spd(3, rng)
        path = tmp_path / "model.json"
        MetricModel(w=w, w0=w0, u=1.5, l=4.0, trace=RunTrace([], w, 0, 0.0, 0.0)).save(path)
        obj = json.loads(path.read_text())
        assert obj["dim"] == 3 and len(obj["w"]) == 9 and len(obj["w0"]) == 9
        back = MetricModel.load(path)
        assert np.array_equal(back.w.mat, w.mat) and np.array_equal(back.w0.mat, w0.mat)
        assert (back.u, back.l) == (1.5, 4.0)

    def test_json_rejects_bad_length(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dim": 2, "w": [1.0, 2.0, 3.0],
                                    "w0": [1.0, 0.0, 0.0, 1.0], "u": 1.0, "l": 2.0}))
        with pytest.raises(DimensionMismatchError):
            MetricModel.load(path)

    def test_json_missing_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dim": 2, "w0": [1.0, 0.0, 0.0, 1.0], "u": 1.0, "l": 2.0}))
        with pytest.raises(ConfigError) as exc:
            MetricModel.load(path)
        assert str(exc.value) == f"model file {path} lacks key(s): w"

    @pytest.mark.parametrize("dim", [0, -1, 1.5, True, "1", None])
    def test_json_rejects_dim_that_is_not_a_positive_integer(self, tmp_path, dim):
        # Each used to fail late (an IndexError at 0, numpy's reshape message
        # at -1) or to load as a 1 x 1 model (1.5, true).
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dim": dim, "w": [1.0], "w0": [1.0], "u": 1.0, "l": 2.0}))
        with pytest.raises(ConfigError, match=r"dim must be an integer >= 1"):
            MetricModel.load(path)

    @pytest.mark.parametrize("key, value", [
        ("u", [1]), ("l", "2"), ("u", True), ("l", None), ("w", {"a": 1}),
        ("w", [1.0, "0", 0.0, 1.0]), ("w0", [1.0, 0.0, None, 1.0]), ("w0", [[1.0, 0.0], [0.0, 1.0]]),
    ])
    def test_json_rejects_entries_that_are_not_numbers(self, tmp_path, key, value):
        # Each used to escape as a TypeError or ValueError traceback, or to
        # load a string or bool as a number.
        obj = {"dim": 2, "w": [1.0, 0.0, 0.0, 1.0], "w0": [1.0, 0.0, 0.0, 1.0], "u": 1.0, "l": 2.0}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**obj, key: value}))
        where = re.escape(f"model file {path}: {key}")
        with pytest.raises(ConfigError, match=rf"^{where} must hold numbers only"):
            MetricModel.load(path)
