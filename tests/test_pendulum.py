import dataclasses
import math
import warnings

import numpy as np
import pytest

from cmereg import pendulum
from cmereg.embedding import alpha_batch, fit
from cmereg.errors import InputError, NumericalError
from cmereg.kernels import KernelSpec, cross_gram, median_bandwidth
from cmereg.pendulum import (
    GRAVITY,
    OMEGA_MAX,
    TORQUE_MAX,
    PendulumParams,
    RandomTorquePolicy,
    _factors,
    collect_dataset,
    evaluate_policy,
    features,
    output_state,
    policy_iteration,
    reward,
    step,
    wrap_angle,
)


@pytest.fixture(scope="module")
def params():
    return PendulumParams()


def fit_transition_model(params, n=60, seed=0, lam=1e-3, bandwidth=None):
    train = collect_dataset(params, n, seed)
    kspec = KernelSpec("gaussian", bandwidth or median_bandwidth(train.xs))
    lspec = KernelSpec("gaussian", median_bandwidth(train.ys))
    return fit(train, kspec, lspec, lam)


def plan(model, params, sweeps, M=None, **kwargs):
    """policy_iteration on the model's transitions and input kernel, with M = model.W by default."""
    return policy_iteration(model.train, model.kspec, model.W if M is None else M, params, sweeps, **kwargs)


class TestParams:
    @pytest.mark.parametrize("bad", [
        {"dt": -1.0}, {"dt": 0.0}, {"friction": -0.1}, {"friction": float("inf")},
        {"discount": 0.0}, {"discount": 1.0}, {"torque_levels": 0},
        {"dt": float("nan")}, {"dt": float("inf")}, {"friction": float("nan")},
    ])
    def test_invalid_params_rejected(self, bad):
        with pytest.raises(InputError):
            PendulumParams(**bad)


def math_step(params, theta, omega, u):
    """One transition of one state with the math module: the scalar reference."""
    u = min(max(u, -TORQUE_MAX), TORQUE_MAX)
    acc = GRAVITY * math.sin(theta) + (u - params.friction * omega)
    omega = min(max(omega + params.dt * acc, -OMEGA_MAX), OMEGA_MAX)
    return (theta + params.dt * omega + math.pi) % (2.0 * math.pi) - math.pi, omega


def inputs(theta, omega, u):
    """Model input rows (sin theta, cos theta, omega, u) for broadcastable theta, omega and u."""
    theta, omega, u = np.broadcast_arrays(theta, omega, u)
    return np.concatenate([features(theta, omega), u[..., None]], axis=-1)


def random_states(count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-math.pi, math.pi, count), rng.uniform(-OMEGA_MAX, OMEGA_MAX, count)


class TestDynamics:
    def test_upright_fixed_point(self, params):
        assert step(params, 0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_hanging_is_equilibrium_in_angle(self, params):
        theta, omega = step(params, np.array([math.pi, -math.pi]), 0.0, 0.0)
        np.testing.assert_allclose(np.abs(theta), math.pi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(omega, 0.0, rtol=0, atol=1e-12)  # sin(pi) round-off only

    def test_gravity_accelerates_away_from_upright(self, params):
        _, omega = step(params, np.array([math.pi / 2, -math.pi / 2]), 0.0, 0.0)
        assert omega[0] > 0.0 > omega[1]

    def test_torque_clamped(self, params):
        theta = np.linspace(-3, 3, 7)
        high = step(params, theta, 0.0, 100.0)
        low = step(params, theta, 0.0, -100.0)
        np.testing.assert_array_equal(high, step(params, theta, 0.0, TORQUE_MAX))
        np.testing.assert_array_equal(low, step(params, theta, 0.0, -TORQUE_MAX))

    def test_batch_broadcasts_like_single_states(self, params):
        theta, omega = random_states(50, 4)
        u = np.linspace(-6, 6, 9)
        batch = step(params, theta[:, None], omega[:, None], u[None, :])
        assert batch[0].shape == batch[1].shape == (50, 9)
        for i in range(50):
            for k in range(9):
                assert (batch[0][i, k], batch[1][i, k]) == step(params, theta[i], omega[i], u[k])

    def test_state_invariants_along_rollout(self, params):
        theta, omega = random_states(500, 0)
        theta[:4], omega[:4] = [3.0, -math.pi, math.pi, 0.0], [6.0, -7.0, 7.0, 7.0]
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta, omega = step(params, theta, omega, rng.uniform(-5, 5, theta.shape))
            assert np.all((-math.pi <= theta) & (theta <= math.pi))
            assert np.all((-OMEGA_MAX <= omega) & (omega <= OMEGA_MAX))

    def test_overflowing_angle_raises_naming_the_parameters(self):
        # dt * omega overflows, so theta' is not finite: one InputError, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"^pendulum dynamics with dt=1e\+308 and friction=0.05 "
                                                 r"give a non-finite transition$"):
                step(PendulumParams(dt=1e308), np.zeros(3), np.array([1.0, -2.0, 0.5]), 0.0)

    def test_overflowing_velocity_update_clamps_silently(self):
        # friction * omega overflows to inf; the clamp then gives the step a large finite friction gives
        theta, omega = random_states(200, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflowed = step(PendulumParams(friction=1e308), theta, omega, 1.0)
        np.testing.assert_array_equal(overflowed, step(PendulumParams(friction=1e306), theta, omega, 1.0))

    def test_wrap(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(0.3) == pytest.approx(0.3)
        np.testing.assert_allclose(wrap_angle(np.array([0.3, 2 * math.pi + 0.3])), 0.3)


class TestReward:
    def test_goal_state_is_one(self):
        assert reward(0.0, 0.0) == 1.0

    def test_hanging(self):
        assert reward(math.pi, 0.0) == pytest.approx(math.exp(-math.pi**2))

    def test_omega_penalty(self):
        assert reward(0.0, 1.0) == pytest.approx(math.exp(-0.2))

    def test_range(self, params):
        r = reward(*random_states(100, 1))
        assert r.shape == (100,)
        assert np.all((0.0 < r) & (r <= 1.0))


class TestFeatures:
    def test_broadcast_fill(self):
        theta, omega = random_states(5, 2)
        got = features(theta[:, None], omega[None, :])
        assert got.shape == (5, 5, 3)
        for i in range(5):
            for k in range(5):
                np.testing.assert_array_equal(got[i, k], [math.sin(theta[i]), math.cos(theta[i]), omega[k]])

    def test_output_state_inverts_output_features(self, params):
        theta, omega = random_states(100, 3)
        rows = features(theta, omega)
        back = output_state(rows)
        np.testing.assert_allclose(back[0], theta, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(back[1], omega)


class TestDataset:
    def test_shape_and_feature_invariant(self, params):
        data = collect_dataset(params, 200, 0)
        assert data.n == 200
        sin_cos = data.xs[:, 0] ** 2 + data.xs[:, 1] ** 2
        np.testing.assert_allclose(sin_cos, 1.0, atol=1e-12)
        out_sc = data.ys[:, 0] ** 2 + data.ys[:, 1] ** 2
        np.testing.assert_allclose(out_sc, 1.0, atol=1e-12)

    @pytest.mark.parametrize("custom", [{}, {"friction": 0.7, "dt": 0.3}])
    def test_matches_per_row_math_reference(self, custom):
        params = PendulumParams(**custom)
        data = collect_dataset(params, 500, 5)
        rng = np.random.default_rng(5)  # collect_dataset's draws: all thetas, all omegas, all torques
        thetas = rng.uniform(-math.pi, math.pi, 500)
        omegas = rng.uniform(-OMEGA_MAX, OMEGA_MAX, 500)
        torques = rng.uniform(-TORQUE_MAX, TORQUE_MAX, 500)
        xs, ys = np.empty((500, 4)), np.empty((500, 3))
        for i in range(500):
            theta, omega, u = float(thetas[i]), float(omegas[i]), float(torques[i])
            xs[i] = [math.sin(theta), math.cos(theta), omega, u]
            theta, omega = math_step(params, theta, omega, u)
            ys[i] = [math.sin(theta), math.cos(theta), omega]
        np.testing.assert_array_equal(data.xs, xs)
        np.testing.assert_array_equal(data.ys, ys)

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
        policy = plan(model, params, sweeps=1)
        r = reward(*output_state(model.train.ys))
        np.testing.assert_allclose(policy.values, r, atol=1e-9)

    def test_value_bound(self, params):
        model = fit_transition_model(params, n=60, seed=2)
        policy = plan(model, params, sweeps=60)
        assert np.max(np.abs(policy.values)) <= 1.0 / (1.0 - params.discount) + 1.0

    def test_convergence_log(self, params):
        model = fit_transition_model(params, n=60, seed=3)
        policy = plan(model, params, sweeps=400, tol=1e-9)
        deltas = policy.sweep_deltas
        assert deltas[-1] < 1e-6
        # sup-norm contraction after warm-up, with slack; skip the noise floor
        for a, b in zip(deltas[5:], deltas[6:]):
            if a > 1e-8:
                assert b <= a * 1.1

    @staticmethod
    def tensor_backup(model, M, params, sweeps, tol):
        """Value iteration through the explicit |grid| x n x n tensor
        A[k] = alpha(y_i, u_k), built with alpha_batch: the reference backup."""
        theta, omega = output_state(model.train.ys)
        r = reward(theta, omega)
        grid = params.torque_grid
        coef = model.with_coefficients(M)
        A = np.array([alpha_batch(coef, inputs(theta, omega, u)) for u in grid])
        V, sweeps_run = np.zeros(model.train.n), 0
        for _ in range(sweeps):
            q = r + params.discount * (A @ V)
            best = np.argmax(q, axis=0)
            V_new = q[best, np.arange(model.train.n)]
            delta, V, sweeps_run = np.max(np.abs(V_new - V)), V_new, sweeps_run + 1
            if delta < tol:
                break
        return V, grid[best], sweeps_run

    @pytest.mark.parametrize("coefficients", ["W", "column_scaled"])
    def test_matches_tensor_backup(self, params, coefficients):
        model = fit_transition_model(params, n=60, seed=2, lam=1e-2)
        M = model.W
        if coefficients == "column_scaled":  # M = W diag(s) is not symmetric
            M = model.W * np.random.default_rng(12).uniform(0.5, 1.0, model.train.n)
            assert not np.allclose(M, M.T)
        policy = plan(model, params, sweeps=200, M=M, tol=1e-9)
        V, greedy, sweeps_run = self.tensor_backup(model, M, params, 200, 1e-9)
        np.testing.assert_allclose(policy.values, V, rtol=1e-10, atol=0)
        np.testing.assert_array_equal(policy.greedy_torque, greedy)
        assert len(policy.sweep_deltas) == sweeps_run
        assert len(set(greedy)) > 1

    def test_state_gram_reads_stored_outputs(self, params, monkeypatch):
        # S is the kernel between the input states and the stored output rows, not rows
        # decoded to (theta, omega) and encoded again (2 of 3600 entries differ at this seed)
        model = fit_transition_model(params, n=60, seed=2)
        grams = []
        monkeypatch.setattr(pendulum, "cross_gram", lambda *a: grams.append(cross_gram(*a)) or grams[-1])
        plan(model, params, sweeps=1)
        square = [K for K in grams if K.shape == (60, 60)]
        assert len(square) == 1
        assert np.array_equal(square[0], cross_gram(model.kspec, model.train.xs[:, :3], model.train.ys))

    def test_divergence_raises(self, params):
        # a near-zero ridge leaves the embedded transition model unstable
        model = fit_transition_model(params, n=30, seed=0, lam=1e-12)
        with pytest.raises(NumericalError, match="^value iteration diverged; try a larger ridge parameter$"):
            plan(model, params, sweeps=50)

    def test_cycling_runs_to_the_cap(self, params):
        # neither converging nor diverging: after 100 sweeps every delta stays above 0.2
        # (0.23-0.86), far from the tolerance and far below the divergence bound
        model = fit_transition_model(params, n=30, seed=0, lam=1e-4)
        deltas = plan(model, params, sweeps=300).sweep_deltas
        assert len(deltas) == 300
        assert min(deltas[100:]) > 0.2

    def test_sweeps_validation(self, params):
        model = fit_transition_model(params, n=20, seed=4)
        with pytest.raises(InputError):
            plan(model, params, sweeps=0)

    def test_coefficients_of_another_shape_rejected(self, params):
        model = fit_transition_model(params, n=20, seed=4)
        with pytest.raises(InputError, match="^coefficient matrix has wrong shape$"):
            plan(model, params, sweeps=1, M=np.eye(21))


class TestPolicyAct:
    @staticmethod
    def direct_torque(model, M, values, grid, theta, omega):
        pts = np.array([[math.sin(theta), math.cos(theta), omega, u] for u in grid])
        Kq = cross_gram(model.kspec, model.train.xs, pts)
        return float(grid[int(np.argmax((M @ Kq).T @ values))])

    def test_matches_direct_scores(self, params):
        model = fit_transition_model(params, n=100, seed=6)
        policy = plan(model, params, sweeps=60)
        for theta, omega in zip(*random_states(250, 9)):
            expected = self.direct_torque(model, model.W, policy.values, params.torque_grid, theta, omega)
            assert policy.act(theta, omega) == expected

    def test_nonsymmetric_coefficients(self, params):
        # a sparse replacement M need not be symmetric: the weights are M^T V
        model = fit_transition_model(params, n=100, seed=6)
        M = model.W * np.random.default_rng(10).uniform(0.5, 1.0, model.train.n)  # W diag(s)
        assert not np.allclose(M, M.T)
        policy = plan(model, params, sweeps=60, M=M)
        states = list(zip(*random_states(200, 11)))
        torques = [policy.act(theta, omega) for theta, omega in states]
        assert torques == [self.direct_torque(model, M, policy.values, params.torque_grid, theta, omega)
                           for theta, omega in states]
        assert len(set(torques)) > 1

    def test_query_row_scores_as_the_state_column(self, params):
        # act scores the 1 x n kernel row of the query; the n x 1 column of the
        # states against it gives the same torque at every state
        model = fit_transition_model(params, n=200, seed=6)
        policy = plan(model, params, sweeps=40)
        torques = []
        for theta, omega in zip(*random_states(1000, 13)):
            column = cross_gram(policy.spec, policy.states, features(theta, omega)[None])[:, 0]
            torques.append(policy.act(theta, omega))
            assert torques[-1] == float(policy.torque_grid[np.argmax(column @ policy.weights)])
        assert len(set(torques)) > 1

    def test_plan_derives_factors_once(self, params, monkeypatch):
        # the policy holds the factors the sweep built; acting derives nothing again
        calls = []
        monkeypatch.setattr(pendulum, "_factors", lambda *a: calls.append(a) or _factors(*a))
        policy = plan(fit_transition_model(params, n=40, seed=6), params, sweeps=5)
        for theta, omega in zip(*random_states(10, 12)):
            policy.act(theta, omega)
        assert len(calls) == 1
        assert policy.states.shape == (40, 3) and policy.states.flags.c_contiguous
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.values = np.zeros(40)

    @pytest.mark.parametrize("spec", [KernelSpec("gaussian", 1.0), KernelSpec("linear"), KernelSpec("delta")],
                             ids=lambda s: s.variant)
    def test_act_rejects_states_of_another_width(self, params, spec):
        # act scores a 3-column state against the policy's states: any other width is an InputError
        model = fit_transition_model(params, n=20, seed=6)
        policy = plan(model, params, sweeps=2)
        for states in (model.train.xs, policy.states[:, :2]):
            # the query comes first, so the message calls the policy's states "points"
            with pytest.raises(InputError, match=f"^points have dimension {states.shape[1]}, kernel expects 3$"):
                dataclasses.replace(policy, spec=spec, states=np.ascontiguousarray(states)).act(0.1, 0.2)

    @pytest.mark.parametrize("bandwidth", [None, 0.3])
    @pytest.mark.parametrize("custom", [{}, {"torque_levels": 4}])
    def test_product_kernel_is_cross_gram(self, custom, bandwidth):
        # the state kernel times the torque factor is cross_gram's block
        # K(training inputs, inputs(state, grid)) up to rounding, at the
        # median bandwidth and at a narrow one
        params = PendulumParams(**custom)
        model = fit_transition_model(params, n=150, seed=13, bandwidth=bandwidth)
        theta, omega = random_states(500, 14)
        rng = np.random.default_rng(13)  # collect_dataset's draws: the training states
        train_theta = rng.uniform(-math.pi, math.pi, model.train.n)
        train_omega = rng.uniform(-OMEGA_MAX, OMEGA_MAX, model.train.n)
        edges = [(t, w) for t in (-math.pi, 0.0, math.pi) for w in (-OMEGA_MAX, 0.0, OMEGA_MAX)]
        theta = np.concatenate([theta, train_theta[:40], [t for t, _ in edges]])
        omega = np.concatenate([omega, train_omega[:40], [w for _, w in edges]])
        np.testing.assert_array_equal(features(train_theta, train_omega), model.train.xs[:, :3])
        grid = params.torque_grid
        T = _factors(model.train, model.kspec, grid)
        for t, w in zip(theta, omega):
            expected = cross_gram(model.kspec, model.train.xs, inputs(t, w, grid))
            state = cross_gram(model.kspec, model.train.xs[:, :3], features(t, w)[None])
            np.testing.assert_allclose(state * T, expected, rtol=0, atol=4.5e-16)

    @pytest.mark.parametrize("kspec", [KernelSpec("linear"), KernelSpec("delta")])
    def test_non_gaussian_input_kernel_rejected(self, params, kspec):
        data = collect_dataset(params, 30, 15)
        model = fit(data, kspec, KernelSpec("gaussian", 1.0), 1e-2)
        with pytest.raises(InputError, match="^the pendulum planner needs a gaussian input kernel$"):
            plan(model, params, sweeps=1)


class TestRandomTorquePolicy:
    @pytest.mark.parametrize("levels", [9, 4, 1])
    def test_draws_as_rng_choice(self, levels):
        # rng.choice(grid) is the oracle: the same torques from the same stream
        params = PendulumParams(torque_levels=levels)
        policy = RandomTorquePolicy(params)
        rng, oracle = np.random.default_rng(16), np.random.default_rng(16)
        for _ in range(10000):
            assert policy.act(0.0, 0.0, rng) == float(oracle.choice(params.torque_grid))
        assert rng.random() == oracle.random()


def per_episode_return(policy, params, episodes, horizon, seed):
    """evaluate_policy one episode at a time, on scalars: the starts are drawn
    first, then one torque per episode per step (drawn up front for the random
    policy, whose torques do not depend on the state)."""
    rng = np.random.default_rng(seed)
    starts = [(rng.uniform(-math.pi, math.pi), rng.uniform(-OMEGA_MAX, OMEGA_MAX))
              for _ in range(episodes)]
    if isinstance(policy, RandomTorquePolicy):
        drawn = [[policy.act(None, None, rng) for _ in range(episodes)] for _ in range(horizon)]
    totals = []
    for e, (theta, omega) in enumerate(starts):
        total, disc = reward(theta, omega), 1.0
        for t in range(horizon):
            u = drawn[t][e] if isinstance(policy, RandomTorquePolicy) else policy.act(theta, omega)
            theta, omega = step(params, theta, omega, u)
            disc *= params.discount
            total += disc * reward(theta, omega)
        totals.append(total)
    return float(np.mean(totals))


class TestEvaluatePolicy:
    def test_zero_horizon_mean_immediate_reward(self, params):
        policy = RandomTorquePolicy(params)
        rng = np.random.default_rng(5)
        got = evaluate_policy(policy, params, episodes=50, horizon=0, seed=5)
        starts = [(rng.uniform(-math.pi, math.pi), rng.uniform(-7, 7)) for _ in range(50)]
        expected = np.mean([reward(theta, omega) for theta, omega in starts])
        assert got == pytest.approx(expected)

    def test_deterministic(self, params):
        policy = RandomTorquePolicy(params)
        a = evaluate_policy(policy, params, episodes=10, horizon=20, seed=8)
        b = evaluate_policy(policy, params, episodes=10, horizon=20, seed=8)
        assert a == b

    def test_lockstep_equals_per_episode_learned(self, params):
        model = fit_transition_model(params, n=80, seed=7)
        policy = plan(model, params, sweeps=40)
        got = evaluate_policy(policy, params, episodes=12, horizon=30, seed=3)
        assert got == per_episode_return(policy, params, 12, 30, 3)

    def test_lockstep_equals_per_episode_random(self, params):
        policy = RandomTorquePolicy(params)
        got = evaluate_policy(policy, params, episodes=12, horizon=30, seed=4)
        assert got == per_episode_return(policy, params, 12, 30, 4)

    def test_one_act_per_episode_per_step(self, params):
        calls = []

        class Counting(RandomTorquePolicy):
            def act(self, theta, omega, rng):
                calls.append((float(theta), float(omega)))
                return super().act(theta, omega, rng)

        evaluate_policy(Counting(params), params, episodes=7, horizon=5, seed=2)
        assert len(calls) == 35
