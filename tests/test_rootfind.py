import pytest

from freecontract.errors import ConvergenceError
from freecontract.rootfind import damped_newton


def test_damped_newton_finds_i():
    w = damped_newton(lambda w: (w * w, 2.0 * w), -1.0, 1.0 + 1.0j, 1e-14, "solving w^2 = -1")
    assert abs(w - 1j) < 1e-14


def test_damped_newton_zero_derivative_raises():
    with pytest.raises(ConvergenceError):
        damped_newton(lambda w: (1.0 + 0j, 0j), 0.0, 1j, 1e-12, "solving 1 = 0")
