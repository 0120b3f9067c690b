"""Discrete velocity models (D2Q9, D2Q37) and their moment-condition checks.

Population ordering is deterministic: rest population first, then shells in
increasing |c|^2, and within a shell counterclockwise starting from the
positive x-axis.  All index-based tests and dump formats rely on this order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# D2Q37 shell weights and squared sound speed, version 1.
#
# Obtained by solving the nonlinear system that enforces isotropy of all even
# velocity moments up to order 8 (9 conditions, 8 shell weights + cs2),
# solved at 50-digit precision; residuals < 1e-49.  Columns: |cx| |cy| weight.
D2Q37_WEIGHT_TABLE = """\
# lbhx d2q37 shell weights, version 1
0 0 0.2331506691323525022865067041
1 0 0.1073060915422190024124642872
1 1 0.05766785988879488203006921539
2 0 0.01420821615845075026469894234
2 1 0.005353049000513775232731501662
2 2 0.001011937592673575475410908507
3 0 0.0002453010277577173454659166433
3 1 0.0002834142529941982174005252942
cs2 0.6979533220196830882384090554
"""

D2Q9_SHELL_WEIGHTS = {(0, 0): 4.0 / 9.0, (1, 0): 1.0 / 9.0, (1, 1): 1.0 / 36.0}


@dataclass(frozen=True)
class LatticeModel:
    """A discrete velocity set with its weights and model constants."""

    name: str
    D: int
    Q: int
    velocities: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    cs2: float
    R: int
    opposite: tuple[int, ...]

    # numpy views, derived once at construction
    c: np.ndarray = field(repr=False, compare=False, default=None)
    w: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "c", np.array(self.velocities, dtype=np.int64))
        object.__setattr__(self, "w", np.array(self.weights, dtype=np.float64))
        self.c.setflags(write=False)
        self.w.setflags(write=False)

    def __hash__(self):
        return hash(self.name)

    @property
    def cx(self) -> np.ndarray:
        return self.c[:, 0]

    @property
    def cy(self) -> np.ndarray:
        return self.c[:, 1]


@dataclass(frozen=True)
class ModelParams:
    """BGK relaxation time, in lattice time units (dt = 1)."""

    tau: float

    def __post_init__(self):
        if not self.tau > 0.5:
            raise ConfigurationError(
                f"tau={self.tau} violates linear stability (requires tau > 1/2)"
            )


def _shell_members(a: int, b: int) -> list[tuple[int, int]]:
    """All sign/axis permutations of (a, b), counterclockwise from +x."""
    uniq = set()
    for (x, y) in ((a, b), (b, a)):
        for sx in (1, -1):
            for sy in (1, -1):
                uniq.add((sx * x, sy * y))
    return sorted(uniq, key=lambda v: math.atan2(v[1], v[0]) % (2 * math.pi))


def _build_from_shells(name: str, shell_weights: dict[tuple[int, int], float],
                       cs2: float) -> LatticeModel:
    shells = sorted(shell_weights, key=lambda s: (s[0] ** 2 + s[1] ** 2, s))
    velocities: list[tuple[int, int]] = []
    weights: list[float] = []
    for shell in shells:
        for v in _shell_members(*shell):
            velocities.append(v)
            weights.append(shell_weights[shell])
    index = {v: i for i, v in enumerate(velocities)}
    opposite = tuple(index[(-vx, -vy)] for (vx, vy) in velocities)
    r = max(max(abs(vx), abs(vy)) for (vx, vy) in velocities)
    return LatticeModel(
        name=name,
        D=2,
        Q=len(velocities),
        velocities=tuple(velocities),
        weights=tuple(weights),
        cs2=cs2,
        R=r,
        opposite=opposite,
    )


def _parse_d2q37_table() -> tuple[dict[tuple[int, int], float], float]:
    shell_weights: dict[tuple[int, int], float] = {}
    cs2 = None
    for line in D2Q37_WEIGHT_TABLE.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "cs2":
            cs2 = float(parts[1])
        else:
            shell_weights[(int(parts[0]), int(parts[1]))] = float(parts[2])
    assert cs2 is not None and len(shell_weights) == 8
    return shell_weights, cs2


def builtin_model(name: str) -> LatticeModel:
    """Return one of the built-in models, ``d2q9`` or ``d2q37``."""
    if name == "d2q9":
        return _build_from_shells("d2q9", D2Q9_SHELL_WEIGHTS, 1.0 / 3.0)
    if name == "d2q37":
        shell_weights, cs2 = _parse_d2q37_table()
        return _build_from_shells("d2q37", shell_weights, cs2)
    raise ConfigurationError(f"unknown model {name!r} (expected d2q9 or d2q37)")


def validate_moments(model: LatticeModel, max_order: int = 4) -> dict[int, float]:
    """Max absolute residual of the isotropy/moment conditions per order.

    Order 0: sum(w) = 1.  Odd orders: all moments vanish.  Order 2:
    sum(w c_i c_j) = cs2 * delta_ij.  Order 4: the isotropic fourth-order
    tensor cs2^2 * (d_ij d_kl + d_ik d_jl + d_il d_jk).
    """
    if max_order > 4:
        raise ConfigurationError("validate_moments supports orders up to 4")
    w = model.w
    c = model.c.astype(np.float64)
    cs2 = model.cs2
    residuals: dict[int, float] = {}
    for order in range(max_order + 1):
        worst = 0.0
        if order == 0:
            worst = abs(float(w.sum()) - 1.0)
        else:
            for axes in _index_tuples(model.D, order):
                mom = float(np.sum(w * np.prod(c[:, axes], axis=1)))
                expected = _isotropic_moment(axes, cs2)
                worst = max(worst, abs(mom - expected))
        residuals[order] = worst
    return residuals


def _index_tuples(dim: int, order: int):
    if order == 0:
        yield ()
        return
    for head in range(dim):
        for tail in _index_tuples(dim, order - 1):
            yield (head,) + tail


def _isotropic_moment(axes: tuple[int, ...], cs2: float) -> float:
    """Expected moment sum(w prod_i c_axes[i]) for an isotropic lattice."""
    order = len(axes)
    if order % 2 == 1:
        return 0.0
    if order == 2:
        return cs2 if axes[0] == axes[1] else 0.0
    if order == 4:
        i, j, k, l = axes
        d = lambda a, b: 1.0 if a == b else 0.0  # noqa: E731
        return cs2 * cs2 * (d(i, j) * d(k, l) + d(i, k) * d(j, l) + d(i, l) * d(j, k))
    raise AssertionError("unreachable for max_order <= 4")
