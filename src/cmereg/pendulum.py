"""Under-actuated pendulum swing-up and embedding-based policy iteration.

The angle convention is theta = 0 upright, wrapped to [-pi, pi]; angular
velocity is clamped to [-OMEGA_MAX, OMEGA_MAX]. The pendulum has unit mass on
a unit length, so the dynamics are a semi-implicit Euler discretization of
theta_dd = GRAVITY sin(theta) + (u - b*omega) with friction b and torques u
in [-TORQUE_MAX, TORQUE_MAX]. As GRAVITY = 9.81 > TORQUE_MAX = 5, the pendulum
cannot be lifted directly and must pump energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .embedding import EmbeddingModel, TrainingSet
from .errors import InputError, NumericalError
from .kernels import KernelSpec, cross_gram
from .linalg import matmul


GRAVITY = 9.81  # g/l for the unit mass on the unit length
TORQUE_MAX = 5.0  # torques lie in [-TORQUE_MAX, TORQUE_MAX]
OMEGA_MAX = 7.0  # angular velocity is clamped to [-OMEGA_MAX, OMEGA_MAX]


@dataclass(frozen=True)
class PendulumParams:
    friction: float = 0.05
    dt: float = 0.1
    discount: float = 0.95
    torque_levels: int = 9

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise InputError("dt must be a positive finite number")
        if not 0.0 <= self.friction < math.inf:
            raise InputError("friction must be a nonnegative finite number")
        if not 0.0 < self.discount < 1.0:
            raise InputError("discount must lie in (0, 1)")
        if self.torque_levels < 1:
            raise InputError("torque_levels must be >= 1")

    @cached_property
    def torque_grid(self) -> np.ndarray:
        grid = np.linspace(-TORQUE_MAX, TORQUE_MAX, self.torque_levels)
        grid.flags.writeable = False  # built once, shared by every reader (Policy.act reads it each step)
        return grid


def wrap_angle(theta):
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def step(params: PendulumParams, theta, omega, u):
    """One semi-implicit Euler step from states (theta, omega) under torques u,
    clamped to their bounds; broadcastable arrays in, (theta', omega') out.

    A velocity update that overflows is clamped like any other, to the step a
    large finite friction or dt gives too. A next state that is not finite
    (dt * omega overflowing the angle) raises InputError naming dt and
    friction: from a finite state, only they can cause it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.clip(u, -TORQUE_MAX, TORQUE_MAX)
        acc = GRAVITY * np.sin(theta) + (u - params.friction * omega)
        omega = np.clip(omega + params.dt * acc, -OMEGA_MAX, OMEGA_MAX)
        theta = wrap_angle(theta + params.dt * omega)
    if not np.all(np.isfinite(theta)):  # omega is clamped, and a NaN omega makes theta NaN too
        raise InputError(f"pendulum dynamics with dt={params.dt:g} and friction={params.friction:g} "
                         "give a non-finite transition")
    return theta, omega


def reward(theta, omega):
    return np.exp(-theta**2 - 0.2 * omega**2)


def features(theta, omega) -> np.ndarray:
    """The state encoding sin(theta), cos(theta), omega along a new last axis of
    length 3, for broadcastable theta and omega: a model's output rows, and its
    input rows before the torque."""
    out = np.empty(np.broadcast(theta, omega).shape + (3,))
    out[..., 0] = np.sin(theta)
    out[..., 1] = np.cos(theta)
    out[..., 2] = omega
    return out


def output_state(ys):
    """The states (theta, omega) encoded in output feature rows (sin, cos, omega)."""
    ys = np.asarray(ys)
    return np.arctan2(ys[..., 0], ys[..., 1]), ys[..., 2]


def collect_dataset(params: PendulumParams, n: int, seed: int) -> TrainingSet:
    """n transitions with theta, omega, u drawn uniformly over their ranges.

    xs is (n, 4) with columns sin(theta), cos(theta), omega, u; ys is (n, 3)
    with columns sin(theta'), cos(theta'), omega' of the next state.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, size=n)
    omega = rng.uniform(-OMEGA_MAX, OMEGA_MAX, size=n)
    u = rng.uniform(-TORQUE_MAX, TORQUE_MAX, size=n)
    xs = np.column_stack([features(theta, omega), u])
    return TrainingSet(xs, features(*step(params, theta, omega, u)))


def _factors(model: EmbeddingModel, grid) -> np.ndarray:
    """The torque factor T[i, k] = k(x_i3, u_k) of the gaussian input kernel as a
    product over (state, torque) inputs, k(x_i, (s, u)) = k(x_i[:3], s) * k(x_i3, u):
    a gaussian with one bandwidth is the same kernel, model.kspec, at any width."""
    if model.kspec.variant != "gaussian":
        raise InputError("the pendulum planner needs a gaussian input kernel")
    return cross_gram(model.kspec, model.train.xs[:, 3], grid)


@dataclass(frozen=True)
class Policy:
    """Greedy policy from policy_iteration: the score of torque u_k at state s is
    sum_i weights[i, k] k(states_i, s), the one a sweep backs up, O(n |grid|)."""

    spec: KernelSpec  # the model's gaussian input kernel, read on the state columns
    states: np.ndarray  # (n, 3) training input states sin, cos, omega; C-contiguous
    weights: np.ndarray  # (n, |grid|): (M^T V)_i T[i, k]
    torque_grid: np.ndarray
    values: np.ndarray  # value per training output state
    greedy_torque: np.ndarray  # greedy action per training output state
    sweep_deltas: list

    def act(self, theta, omega, rng=None) -> float:
        # the query first: cdist fills a 1 x n row far faster than an n x 1 column, same bits
        scores = cross_gram(self.spec, features(theta, omega)[None], self.states)[0] @ self.weights
        return float(self.torque_grid[np.argmax(scores)])  # ties -> smallest torque


class RandomTorquePolicy:
    """Uniform choice from the torque grid; the baseline opponent."""

    def __init__(self, params: PendulumParams):
        self._grid = params.torque_grid

    def act(self, theta, omega, rng) -> float:
        return float(self._grid[rng.integers(len(self._grid))])  # the draw of rng.choice(grid)


def policy_iteration(model: EmbeddingModel, params: PendulumParams, sweeps: int,
                     tol: float = 1e-6) -> Policy:
    """Approximate value iteration over the training output states through the
    embedded transition model.

    The backup is V_i <- max_u [ r(y_i) + discount * alpha(y_i, u) @ V ] where
    alpha comes from the conditional mean embedding with coefficients M =
    model.W (a sparse M plans through model.with_coefficients). With the
    gaussian input kernel as the product S[i, j] * T[i, k] of a state Gram and
    a torque factor (see _factors), alpha(y_j, u_k) @ V = sum_i (M^T V)_i
    T[i, k] S[i, j]: the score Policy.act uses. Ties go to the smallest torque.
    """
    if sweeps < 1:
        raise InputError("sweeps must be >= 1")
    M, n = model.W, model.train.n
    r = reward(*output_state(model.train.ys))
    grid = params.torque_grid
    T = _factors(model, grid)
    states = np.ascontiguousarray(model.train.xs[:, :3])
    S = cross_gram(model.kspec, states, model.train.ys)  # (n, n): the output rows are the states' features
    v_bound = 1.0 / (1.0 - params.discount) + 1.0
    V = np.zeros(n)
    deltas = []
    for _ in range(sweeps):
        q = r + params.discount * matmul(((M.T @ V)[:, None] * T).T, S)  # (|grid|, n), on scipy's BLAS pool
        best_u = np.argmax(q, axis=0)  # first max = smallest torque
        V_new = q[best_u, np.arange(n)]
        if np.max(np.abs(V_new)) > v_bound:
            raise NumericalError("value iteration diverged; try a larger ridge parameter")
        deltas.append(float(np.max(np.abs(V_new - V))))
        V = V_new
        if deltas[-1] < tol:
            break
    return Policy(spec=model.kspec, states=states, weights=(M.T @ V)[:, None] * T, torque_grid=grid,
                  values=V, greedy_torque=grid[best_u], sweep_deltas=deltas)


def evaluate_policy(policy, params: PendulumParams, episodes: int, horizon: int, seed: int) -> float:
    """Mean discounted return of `policy` over seeded uniform-random starts.

    All start states are drawn first, then the episodes advance in lockstep:
    each time step asks policy.act once per episode, in episode order, and
    steps every episode in one batch. The return includes the start-state
    reward, so horizon 0 scores the mean immediate reward.
    """
    if episodes < 1:
        raise InputError("episodes must be >= 1")
    rng = default_rng(seed)
    low, high = [-math.pi, -OMEGA_MAX], [math.pi, OMEGA_MAX]
    theta, omega = rng.uniform(low, high, size=(episodes, 2)).T  # draws theta_0, omega_0, theta_1, ...
    total = reward(theta, omega)
    disc = 1.0
    u = np.empty(episodes)
    for _ in range(horizon):
        for e in range(episodes):
            u[e] = policy.act(theta[e], omega[e], rng)
        theta, omega = step(params, theta, omega, u)
        disc *= params.discount
        total += disc * reward(theta, omega)
    return float(np.mean(total))
