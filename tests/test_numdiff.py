"""The parabolic vertex shared by the closest-approach and fiber-return searches."""

import numpy as np

from sasakigeo.numdiff import _parabolic_vertex


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
