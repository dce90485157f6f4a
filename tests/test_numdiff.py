"""The parabolic vertex shared by the closest-approach and fiber-return searches,
and the Simpson and trapezoid sums of the variation and functional quadratures."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson

from sasakigeo.numdiff import _cumulative_trapezoid, _parabolic_vertex, _simpson


def test_parabolic_vertex_of_sampled_parabolas():
    # samples of a (k - c)^2 + b at k = -1, 0, 1 put the vertex at c exactly
    c = np.array([-0.75, -0.25, 0.0, 0.375, 0.5, 1.0])
    a, b = 3.0, 0.125
    dm, d0, dp = (a * (k - c) ** 2 + b for k in (-1.0, 0.0, 1.0))
    assert np.array_equal(_parabolic_vertex(dm, d0, dp), c)


def test_parabolic_vertex_of_collinear_samples_is_the_middle():
    dm = np.array([1.0, 2.0, 5.0])
    assert np.array_equal(_parabolic_vertex(dm, dm + 1.0, dm + 2.0), np.zeros(3))
    assert _parabolic_vertex(0.5, 0.5, 0.5) == 0.0


def test_parabolic_vertex_clips_to_one_spacing():
    # vertices at -3 and 2.5 spacings lie outside the three samples
    c = np.array([-3.0, 2.5])
    dm, d0, dp = ((k - c) ** 2 for k in (-1.0, 0.0, 1.0))
    assert np.array_equal(_parabolic_vertex(dm, d0, dp), [-1.0, 1.0])
    # a parabola opening downwards has its vertex at the maximum: still clipped
    assert _parabolic_vertex(-9.0, -4.0, -1.0) == 1.0


_SAMPLE_COUNTS = list(range(3, 61)) + [1200, 1201]


@pytest.mark.parametrize("n", _SAMPLE_COUNTS)
def test_quadrature_matches_scipy_bit_for_bit(n):
    # odd and even counts (Cartwright's last-interval correction), linspace
    # grids of several spans and integrands of several scales
    rng = np.random.default_rng(n)
    for start, stop, scale in ((0.0, 1.0, 1.0), (-0.3, 7.25, 1e3), (0.0, 2.0 * np.pi, 1e-4)):
        x = np.linspace(start, stop, n)
        y = scale * (np.sin(3.0 * x) + rng.standard_normal(n))
        assert _simpson(y, x) == simpson(y, x=x)
        assert np.array_equal(_cumulative_trapezoid(y, x), cumulative_trapezoid(y, x))


@pytest.mark.parametrize("rule", [_simpson, _cumulative_trapezoid])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_quadrature_rejects_fewer_than_three_samples(rule, n):
    with pytest.raises(ValueError, match="at least 3 samples"):
        rule(np.ones(n), np.linspace(0.0, 1.0, n))
