"""Tests for repro.utils."""

import os

import numpy as np
import pytest

from repro.utils import (
    as_generator,
    check_int_at_least,
    check_matrix_square,
    check_positive,
    check_probability,
    interprocess_lock,
    pairs_count,
)


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seeds_deterministically(self):
        a = as_generator(42).integers(0, 1000, size=10)
        b = as_generator(42).integers(0, 1000, size=10)
        assert (a == b).all()

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1.0, 0.001, 1e9])
    def test_accepts_positive(self, value):
        assert check_positive("v", value) == value

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_and_nonfinite(self, value):
        with pytest.raises(ValueError):
            check_positive("v", value)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1, float("nan")])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckIntAtLeast:
    def test_accepts_integer(self):
        assert check_int_at_least("n", 5, 1) == 5

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError):
            check_int_at_least("n", 0, 1)

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            check_int_at_least("n", 2.5, 1)


class TestCheckMatrixSquare:
    def test_accepts_square(self):
        out = check_matrix_square("m", [[1, 0], [0, 1]])
        assert out.shape == (2, 2)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_matrix_square("m", np.zeros((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            check_matrix_square("m", np.zeros(4))


class TestPairsCount:
    @pytest.mark.parametrize("m,expected", [(1, 0), (2, 1), (4, 6), (8, 28)])
    def test_binomial(self, m, expected):
        assert pairs_count(m) == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestInterprocessLock:
    def test_a_child_forked_inside_the_block_does_not_keep_the_lock(
        self, tmp_path
    ):
        # The child shares the lock's open file description; it blocks
        # on a pipe until the parent has checked the lock from outside.
        fcntl = pytest.importorskip("fcntl")
        lock_path = tmp_path / "x.lock"
        release_read, release_write = os.pipe()
        with interprocess_lock(lock_path):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child
                os.read(release_read, 1)
                os._exit(0)
        try:
            fd = os.open(lock_path, os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
        finally:
            os.write(release_write, b"x")
            os.waitpid(pid, 0)
            os.close(release_read)
            os.close(release_write)
