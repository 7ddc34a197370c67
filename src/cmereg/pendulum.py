"""Under-actuated pendulum swing-up and embedding-based policy iteration.

The angle convention is theta = 0 upright, wrapped to [-pi, pi]; angular
velocity is clamped to [-omega_max, omega_max]. Dynamics are a semi-implicit
Euler discretization of theta_dd = (g/l) sin(theta) + (u - b*omega)/(m*l^2).
With the defaults m*g*l = 9.81 > torque_max = 5, so the pendulum cannot be
lifted directly and must pump energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingModel, TrainingSet
from .errors import InputError, InstabilityError
from .kernels import cross_gram


@dataclass(frozen=True)
class PendulumParams:
    mass: float = 1.0
    length: float = 1.0
    gravity: float = 9.81
    friction: float = 0.05
    dt: float = 0.1
    torque_min: float = -5.0
    torque_max: float = 5.0
    omega_max: float = 7.0
    discount: float = 0.95
    torque_levels: int = 9

    def __post_init__(self):
        for name in ("mass", "length", "gravity", "dt", "omega_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InputError(f"{name} must be a positive finite number")
        if not 0.0 <= self.friction < math.inf:
            raise InputError("friction must be a nonnegative finite number")
        if not -math.inf < self.torque_min <= self.torque_max < math.inf:
            raise InputError("torques must be finite with torque_min <= torque_max")
        if not 0.0 < self.discount < 1.0:
            raise InputError("discount must lie in (0, 1)")
        if self.torque_levels < 1:
            raise InputError("torque_levels must be >= 1")

    @property
    def torque_grid(self) -> np.ndarray:
        return np.linspace(self.torque_min, self.torque_max, self.torque_levels)


def wrap_angle(theta):
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def step(params: PendulumParams, theta, omega, u):
    """One semi-implicit Euler step from states (theta, omega) under torques u,
    clamped to their bounds; broadcastable arrays in, (theta', omega') out."""
    u = np.clip(u, params.torque_min, params.torque_max)
    m, l, g, b = params.mass, params.length, params.gravity, params.friction
    acc = (g / l) * np.sin(theta) + (u - b * omega) / (m * l * l)
    omega = np.clip(omega + params.dt * acc, -params.omega_max, params.omega_max)
    return wrap_angle(theta + params.dt * omega), omega


def reward(theta, omega):
    return np.exp(-theta**2 - 0.2 * omega**2)


def features(theta, omega, u) -> np.ndarray:
    """Model inputs sin(theta), cos(theta), omega, u along a new last axis of
    length 4, for broadcastable theta, omega and u."""
    out = np.empty(np.broadcast(theta, omega, u).shape + (4,))
    out[..., 0] = np.sin(theta)
    out[..., 1] = np.cos(theta)
    out[..., 2] = omega
    out[..., 3] = u
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
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, size=n)
    omega = rng.uniform(-params.omega_max, params.omega_max, size=n)
    u = rng.uniform(params.torque_min, params.torque_max, size=n)
    theta2, omega2 = step(params, theta, omega, u)
    outputs = np.column_stack([np.sin(theta2), np.cos(theta2), omega2])
    return TrainingSet(features(theta, omega, u), outputs)


@dataclass
class Policy:
    """Greedy policy extracted from embedding-based value iteration."""

    model: EmbeddingModel
    coefficients: np.ndarray
    params: PendulumParams
    values: np.ndarray  # value per training output state
    greedy_torque: np.ndarray  # greedy action per training output state
    sweep_deltas: list = field(default_factory=list)
    # coefficients.T @ values: the greedy score of torque u at a state is
    # weights @ Kq with Kq = K(training inputs, features(state, u)), the
    # expression policy_iteration backs up; O(n |grid|) a step, not O(n^2 |grid|)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.weights = self.coefficients.T @ self.values

    def act(self, theta, omega, rng=None) -> float:
        grid = self.params.torque_grid
        Kq = cross_gram(self.model.kspec, self.model.train.xs, features(theta, omega, grid))
        return float(grid[np.argmax(self.weights @ Kq)])  # ties -> smallest torque


class RandomTorquePolicy:
    """Uniform choice from the torque grid; the baseline opponent."""

    def __init__(self, params: PendulumParams):
        self.params = params

    def act(self, theta, omega, rng) -> float:
        return float(rng.choice(self.params.torque_grid))


def policy_iteration(model: EmbeddingModel, params: PendulumParams, sweeps: int,
                     coefficients: np.ndarray | None = None, tol: float = 1e-6) -> Policy:
    """Approximate value iteration over the training output states through the
    embedded transition model.

    The backup is V_i <- max_u [ r(y_i) + discount * alpha(y_i, u) @ V ] where
    alpha comes from the conditional mean embedding (coefficients W, or a
    sparse replacement M). alpha(y_i, u) @ V = (M^T V) @ Kq[u][:, i], with Kq[u]
    the kernel block between the training inputs and (y_i, u): the score
    Policy.act uses. Ties go to the smallest torque.
    """
    if sweeps < 1:
        raise InputError("sweeps must be >= 1")
    W = model.W if coefficients is None else np.asarray(coefficients, dtype=float)
    n = model.train.n
    theta, omega = output_state(model.train.ys)
    r = reward(theta, omega)
    grid = params.torque_grid
    Kq = np.empty((len(grid), n, n))  # filled one torque at a time to bound the transient
    for k, u in enumerate(grid):
        Kq[k] = cross_gram(model.kspec, model.train.xs, features(theta, omega, u))
    v_bound = 1.0 / (1.0 - params.discount) + 1.0
    V = np.zeros(n)
    deltas = []
    for _ in range(sweeps):
        q = r + params.discount * ((W.T @ V) @ Kq)  # (|grid|, n)
        best_u = np.argmax(q, axis=0)  # first max = smallest torque
        V_new = q[best_u, np.arange(n)]
        if np.max(np.abs(V_new)) > v_bound:
            raise InstabilityError("value iteration diverged; try a larger ridge parameter")
        deltas.append(float(np.max(np.abs(V_new - V))))
        V = V_new
        if deltas[-1] < tol:
            break
    return Policy(model=model, coefficients=W, params=params, values=V,
                  greedy_torque=grid[best_u], sweep_deltas=deltas)


def evaluate_policy(policy, params: PendulumParams, episodes: int, horizon: int, seed: int) -> float:
    """Mean discounted return of `policy` over seeded uniform-random starts.

    All start states are drawn first, then the episodes advance in lockstep:
    each time step asks policy.act once per episode, in episode order, and
    steps every episode in one batch. The return includes the start-state
    reward, so horizon 0 scores the mean immediate reward.
    """
    if episodes < 1:
        raise InputError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    low, high = [-math.pi, -params.omega_max], [math.pi, params.omega_max]
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
