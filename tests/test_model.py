"""Velocity-set construction and moment-condition tests.

The D2Q37 shell weights and sound speed asserted here were computed
independently by solving the order-8 isotropy system at 50-digit precision;
the literals below are frozen reference values, not copies of runtime output.
"""
import math

import numpy as np
import pytest

from lbhx.errors import ConfigurationError
from lbhx.model import ModelParams, builtin_model, validate_moments

# (|cx|, |cy|) -> (shell size, weight) frozen reference values
D2Q37_SHELLS = {
    (0, 0): (1, 0.2331506691323525022865067041),
    (1, 0): (4, 0.1073060915422190024124642872),
    (1, 1): (4, 0.05766785988879488203006921539),
    (2, 0): (4, 0.01420821615845075026469894234),
    (2, 1): (8, 0.005353049000513775232731501662),
    (2, 2): (4, 0.001011937592673575475410908507),
    (3, 0): (4, 0.0002453010277577173454659166433),
    (3, 1): (8, 0.0002834142529941982174005252942),
}
D2Q37_CS2 = 0.6979533220196830882384090554


def test_d2q9_structure():
    m = builtin_model("d2q9")
    assert (m.D, m.Q, m.R) == (2, 9, 1)
    assert m.cs2 == pytest.approx(1.0 / 3.0, rel=0, abs=1e-16)
    assert m.velocities[0] == (0, 0)
    assert math.isclose(sum(m.weights), 1.0, rel_tol=0, abs_tol=1e-15)


def test_d2q37_shell_decomposition():
    m = builtin_model("d2q37")
    assert (m.D, m.Q, m.R) == (2, 37, 3)
    shells = {}
    for (cx, cy), w in zip(m.velocities, m.weights):
        key = tuple(sorted((abs(cx), abs(cy)), reverse=True))
        shells.setdefault(key, []).append(w)
    assert set(shells) == set(D2Q37_SHELLS)
    for key, (size, weight) in D2Q37_SHELLS.items():
        ws = shells[key]
        assert len(ws) == size
        for w in ws:
            assert w == pytest.approx(weight, rel=1e-15)
    assert m.cs2 == pytest.approx(D2Q37_CS2, rel=1e-15)
    assert math.isclose(sum(m.weights), 1.0, rel_tol=0, abs_tol=1e-14)


@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
def test_opposite_is_involution(name):
    m = builtin_model(name)
    for i, (cx, cy) in enumerate(m.velocities):
        j = m.opposite[i]
        assert m.velocities[j] == (-cx, -cy)
        assert m.opposite[j] == i


@pytest.mark.parametrize("name,order", [("d2q9", 4), ("d2q37", 4)])
def test_moment_conditions(name, order):
    m = builtin_model(name)
    residuals = validate_moments(m, max_order=order)
    assert set(residuals) == set(range(order + 1))
    for res in residuals.values():
        assert res <= 1e-12


def test_velocity_ordering_deterministic():
    m = builtin_model("d2q37")
    c2 = [cx * cx + cy * cy for cx, cy in m.velocities]
    assert c2 == sorted(c2)
    assert m.velocities[0] == (0, 0)
    # within a shell: counterclockwise from the +x axis
    first_shell = m.velocities[1:5]
    assert first_shell == ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_unknown_model_rejected():
    with pytest.raises(ConfigurationError):
        builtin_model("d3q19")


def test_model_params_validation():
    assert ModelParams(tau=0.8).tau == 0.8
    with pytest.raises(ConfigurationError):
        ModelParams(tau=0.5)


def test_numpy_views_consistent():
    m = builtin_model("d2q37")
    assert np.array_equal(m.c[:, 0], m.cx)
    assert np.array_equal(m.c[:, 1], m.cy)
    assert m.w.shape == (37,)
    with pytest.raises(ValueError):
        m.w[0] = 0.0  # views are read-only
