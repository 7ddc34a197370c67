import math

import numpy as np
import pytest

from cmereg.embedding import fit
from cmereg.errors import InputError
from cmereg.kernels import KernelSpec, cross_gram, median_bandwidth
from cmereg.pendulum import (
    PendulumParams,
    Policy,
    RandomTorquePolicy,
    State,
    collect_dataset,
    evaluate_policy,
    features,
    policy_iteration,
    reward,
    step,
    wrap_angle,
)


@pytest.fixture(scope="module")
def params():
    return PendulumParams()


def fit_transition_model(params, n=60, seed=0, lam=1e-3):
    data = collect_dataset(params, n, seed)
    train = data
    kspec = KernelSpec("gaussian", median_bandwidth(train.xs), 4)
    lspec = KernelSpec("gaussian", median_bandwidth(train.ys), 3)
    return fit(train, kspec, lspec, lam)


class TestParams:
    @pytest.mark.parametrize("bad", [
        {"dt": -1.0}, {"dt": 0.0}, {"mass": 0.0}, {"length": -1.0}, {"gravity": 0.0},
        {"omega_max": 0.0}, {"friction": -0.1}, {"torque_min": 1.0, "torque_max": -1.0},
        {"dt": float("nan")}, {"dt": float("inf")},
    ])
    def test_invalid_params_rejected(self, bad):
        with pytest.raises(InputError):
            PendulumParams(**bad)


class TestDynamics:
    def test_upright_fixed_point(self, params):
        s = step(params, State(0.0, 0.0), 0.0)
        assert s == State(0.0, 0.0)

    def test_hanging_is_equilibrium_in_angle(self, params):
        s = step(params, State(math.pi, 0.0), 0.0)
        assert abs(abs(s.theta) - math.pi) < 1e-12
        assert abs(s.omega) < 1e-12  # sin(pi) round-off only

    def test_gravity_accelerates_away_from_upright(self, params):
        s = step(params, State(math.pi / 2, 0.0), 0.0)
        assert s.omega > 0.0

    def test_torque_clamped(self, params):
        s1 = step(params, State(1.0, 0.0), 100.0)
        s2 = step(params, State(1.0, 0.0), params.torque_max)
        assert s1 == s2

    def test_state_invariants_along_rollout(self, params):
        s = State(3.0, 6.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = step(params, s, rng.uniform(-5, 5))
            assert -math.pi <= s.theta <= math.pi
            assert -params.omega_max <= s.omega <= params.omega_max

    def test_wrap(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(0.3) == pytest.approx(0.3)


class TestReward:
    def test_goal_state_is_one(self):
        assert reward(State(0.0, 0.0)) == 1.0

    def test_hanging(self):
        assert reward(State(math.pi, 0.0)) == pytest.approx(math.exp(-math.pi**2))

    def test_omega_penalty(self):
        assert reward(State(0.0, 1.0)) == pytest.approx(math.exp(-0.2))

    def test_range(self, params):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = State(rng.uniform(-math.pi, math.pi), rng.uniform(-7, 7))
            assert 0.0 < reward(s) <= 1.0


class TestDataset:
    def test_shape_and_feature_invariant(self, params):
        data = collect_dataset(params, 200, 0)
        assert data.n == 200
        sin_cos = data.xs[:, 0] ** 2 + data.xs[:, 1] ** 2
        np.testing.assert_allclose(sin_cos, 1.0, atol=1e-12)
        out_sc = data.ys[:, 0] ** 2 + data.ys[:, 1] ** 2
        np.testing.assert_allclose(out_sc, 1.0, atol=1e-12)

    def test_deterministic(self, params):
        d1 = collect_dataset(params, 50, 7)
        d2 = collect_dataset(params, 50, 7)
        np.testing.assert_array_equal(d1.xs, d2.xs)
        np.testing.assert_array_equal(d1.ys, d2.ys)

    def test_torque_marginal_uniform(self, params):
        data = collect_dataset(params, 100000, 3)
        assert abs(np.mean(data.xs[:, 3])) < 0.05


class TestPolicyIteration:
    def test_discount_zero_collapses_to_reward(self):
        params = PendulumParams(discount=1e-12)
        model = fit_transition_model(params, n=40, seed=1)
        policy = policy_iteration(model, params, sweeps=1)
        from cmereg.pendulum import output_state
        r = np.array([reward(output_state(row)) for row in np.asarray(model.train.ys)])
        np.testing.assert_allclose(policy.values, r, atol=1e-9)

    def test_value_bound(self, params):
        model = fit_transition_model(params, n=60, seed=2)
        policy = policy_iteration(model, params, sweeps=60)
        assert np.max(np.abs(policy.values)) <= 1.0 / (1.0 - params.discount) + 1.0

    def test_convergence_log(self, params):
        model = fit_transition_model(params, n=60, seed=3)
        policy = policy_iteration(model, params, sweeps=400, tol=1e-9)
        deltas = policy.sweep_deltas
        assert deltas[-1] < 1e-6
        # sup-norm contraction after warm-up, with slack; skip the noise floor
        for a, b in zip(deltas[5:], deltas[6:]):
            if a > 1e-8:
                assert b <= a * 1.1

    def test_sweeps_validation(self, params):
        model = fit_transition_model(params, n=20, seed=4)
        with pytest.raises(InputError):
            policy_iteration(model, params, sweeps=0)


class TestPolicyAct:
    @staticmethod
    def direct_torque(policy, s):
        grid = policy.params.torque_grid
        pts = np.array([features(s, u) for u in grid])
        Kq = cross_gram(policy.model.kspec, policy.model.train.xs, pts)
        return float(grid[int(np.argmax((policy.coefficients @ Kq).T @ policy.values))])

    @staticmethod
    def random_states(count, seed):
        rng = np.random.default_rng(seed)
        return [State(rng.uniform(-math.pi, math.pi), rng.uniform(-7, 7)) for _ in range(count)]

    def test_matches_direct_scores(self, params):
        model = fit_transition_model(params, n=100, seed=6)
        policy = policy_iteration(model, params, sweeps=60)
        for s in self.random_states(250, 9):
            assert policy.act(s) == self.direct_torque(policy, s)

    def test_nonsymmetric_coefficients(self, params):
        # a sparse replacement M need not be symmetric: the weights are M^T V
        model = fit_transition_model(params, n=100, seed=6)
        rng = np.random.default_rng(10)
        M = model.W * (rng.uniform(size=model.W.shape) < 0.5)
        policy = Policy(model=model, coefficients=M, params=params,
                        values=rng.uniform(0, 5, model.train.n),
                        greedy_torque=np.zeros(model.train.n))
        for s in self.random_states(200, 11):
            assert policy.act(s) == self.direct_torque(policy, s)


class TestEvaluatePolicy:
    def test_zero_horizon_mean_immediate_reward(self, params):
        policy = RandomTorquePolicy(params)
        rng = np.random.default_rng(5)
        got = evaluate_policy(policy, params, episodes=50, horizon=0, seed=5)
        starts = [State(rng.uniform(-math.pi, math.pi), rng.uniform(-7, 7)) for _ in range(50)]
        expected = np.mean([reward(s) for s in starts])
        assert got == pytest.approx(expected)

    def test_deterministic(self, params):
        policy = RandomTorquePolicy(params)
        a = evaluate_policy(policy, params, episodes=10, horizon=20, seed=8)
        b = evaluate_policy(policy, params, episodes=10, horizon=20, seed=8)
        assert a == b
