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

from .embedding import EmbeddingModel, TrainingSet, alpha_batch
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


@dataclass(frozen=True)
class State:
    theta: float  # rad, 0 = upright, in [-pi, pi]
    omega: float  # rad/s


def wrap_angle(theta: float) -> float:
    return float((theta + math.pi) % (2.0 * math.pi) - math.pi)


def step(params: PendulumParams, s: State, u: float) -> State:
    """One semi-implicit Euler step; torque clamped to its bounds."""
    u = min(max(u, params.torque_min), params.torque_max)
    m, l, g, b = params.mass, params.length, params.gravity, params.friction
    acc = (g / l) * math.sin(s.theta) + (u - b * s.omega) / (m * l * l)
    omega = s.omega + params.dt * acc
    omega = min(max(omega, -params.omega_max), params.omega_max)
    theta = wrap_angle(s.theta + params.dt * omega)
    return State(theta=theta, omega=omega)


def reward(s: State) -> float:
    return math.exp(-s.theta**2 - 0.2 * s.omega**2)


def features(s: State, u: float) -> np.ndarray:
    return np.array([math.sin(s.theta), math.cos(s.theta), s.omega, u])


def _output_features(s: State) -> np.ndarray:
    return np.array([math.sin(s.theta), math.cos(s.theta), s.omega])


def output_state(row) -> State:
    """Recover the state encoded in an output feature row."""
    return State(theta=math.atan2(row[0], row[1]), omega=float(row[2]))


def collect_dataset(params: PendulumParams, n: int, seed: int) -> TrainingSet:
    """n transitions with theta, omega, u drawn uniformly over their ranges.

    xs is (n, 4) with columns sin(theta), cos(theta), omega, u; ys is (n, 3)
    with columns sin(theta'), cos(theta'), omega' of the next state.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-math.pi, math.pi, size=n)
    omegas = rng.uniform(-params.omega_max, params.omega_max, size=n)
    torques = rng.uniform(params.torque_min, params.torque_max, size=n)
    inputs = np.empty((n, 4))
    outputs = np.empty((n, 3))
    for i in range(n):
        s = State(thetas[i], omegas[i])
        inputs[i] = features(s, torques[i])
        outputs[i] = _output_features(step(params, s, torques[i]))
    return TrainingSet(inputs, outputs)


@dataclass
class Policy:
    """Greedy policy extracted from embedding-based value iteration."""

    model: EmbeddingModel
    coefficients: np.ndarray
    params: PendulumParams
    values: np.ndarray  # value per training output state
    greedy_torque: np.ndarray  # greedy action per training output state
    sweep_deltas: list = field(default_factory=list)
    # coefficients.T @ values: the greedy scores (coefficients @ Kq).T @ values
    # equal Kq.T @ weights, so each step costs O(n |grid|) instead of O(n^2 |grid|)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.weights = self.coefficients.T @ self.values

    def act(self, s: State, rng=None) -> float:
        grid = self.params.torque_grid
        pts = np.array([features(s, u) for u in grid])
        Kq = cross_gram(self.model.kspec, self.model.train.xs, pts)
        scores = Kq.T @ self.weights
        return float(grid[int(np.argmax(scores))])  # ties -> smallest torque


class RandomTorquePolicy:
    """Uniform choice from the torque grid; the baseline opponent."""

    def __init__(self, params: PendulumParams):
        self.params = params

    def act(self, s: State, rng) -> float:
        return float(rng.choice(self.params.torque_grid))


def policy_iteration(
    model: EmbeddingModel,
    params: PendulumParams,
    sweeps: int,
    coefficients: np.ndarray | None = None,
    tol: float = 1e-6,
) -> Policy:
    """Approximate value iteration over the training output states through the
    embedded transition model.

    The backup is V_i <- max_u [ r(y_i) + discount * alpha(y_i, u) @ V ] where
    alpha comes from the conditional mean embedding (coefficients W, or a
    sparse replacement M). Ties go to the smallest torque.
    """
    if sweeps < 1:
        raise InputError("sweeps must be >= 1")
    W = model.W if coefficients is None else np.asarray(coefficients, dtype=float)
    n = model.train.n
    out_states = [output_state(row) for row in np.asarray(model.train.ys)]
    r = np.array([reward(s) for s in out_states])
    grid = params.torque_grid
    # precompute the embedding coefficients for every (support state, torque)
    A = np.empty((len(grid), n, n))
    for k, u in enumerate(grid):
        pts = np.array([features(s, u) for s in out_states])
        A[k] = alpha_batch(model.with_coefficients(W), pts)
    v_bound = 1.0 / (1.0 - params.discount) + 1.0
    V = np.zeros(n)
    deltas = []
    best_u = np.zeros(n, dtype=int)
    for _ in range(sweeps):
        q = r[None, :] + params.discount * (A @ V)  # (|grid|, n)
        best_u = np.argmax(q, axis=0)  # first max = smallest torque
        V_new = q[best_u, np.arange(n)]
        if np.max(np.abs(V_new)) > v_bound:
            raise InstabilityError(
                "value iteration diverged; try a larger ridge parameter"
            )
        deltas.append(float(np.max(np.abs(V_new - V))))
        V = V_new
        if deltas[-1] < tol:
            break
    return Policy(
        model=model,
        coefficients=W,
        params=params,
        values=V,
        greedy_torque=grid[best_u],
        sweep_deltas=deltas,
    )


def evaluate_policy(policy, params: PendulumParams, episodes: int, horizon: int, seed: int) -> float:
    """Mean discounted return of `policy` over seeded uniform-random starts.

    The return includes the start-state reward, so horizon 0 scores the mean
    immediate reward.
    """
    if episodes < 1:
        raise InputError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    totals = []
    for _ in range(episodes):
        s = State(rng.uniform(-math.pi, math.pi), rng.uniform(-params.omega_max, params.omega_max))
        total = reward(s)
        disc = 1.0
        for _ in range(horizon):
            u = policy.act(s, rng)
            s = step(params, s, u)
            disc *= params.discount
            total += disc * reward(s)
        totals.append(total)
    return float(np.mean(totals))
