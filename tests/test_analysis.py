import math

import numpy as np
import pytest

from qpolgrad import analysis
from qpolgrad.analysis import (
    BoundInputs,
    fisher_matrix,
    hoeffding_validate,
    lemma1_samples,
    lemma2_shots,
    spectrum,
)
from qpolgrad.classical import MlpPolicy, MlpSpec
from qpolgrad.errors import ContractError
from qpolgrad.reinforce import init_mlp_params
from qpolgrad.vqpolicy import CircuitSpec, QuantumPolicy

from conftest import evolve_hamiltonian, init_zero


class StubPolicy:
    """Policy stand-in returning prescribed log-policy gradients."""

    def __init__(self, grads):
        self.grads = np.atleast_2d(np.asarray(grads, dtype=float))

    def grad_log_batch(self, states, actions, rng=None):
        return self.grads


# ---------------------------------------------------------------------------
# Fisher matrix
# ---------------------------------------------------------------------------

def test_fisher_single_outer_product():
    f = fisher_matrix(StubPolicy([[2.0]]), [0], [0])
    np.testing.assert_allclose(f, [[4.0]])


def test_fisher_two_sample_average():
    f = fisher_matrix(StubPolicy([[2.0], [4.0]]), [0, 0], [0, 0])
    np.testing.assert_allclose(f, [[10.0]])


def test_fisher_rank_bounded_by_samples():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=(3, 6))
    f = fisher_matrix(StubPolicy(grads), [0] * 3, [0] * 3)
    eigs = spectrum(f).eigenvalues
    assert np.sum(eigs > 1e-12) <= 3


def small_policy(kind):
    """A 2-action policy over 3 features: a 3-qubit circuit in exact mode
    ("quantum") or with 100 shots ("shots"), or a ReLU network."""
    rng = np.random.default_rng(3)
    if kind == "classical":
        spec = MlpSpec((3, 8, 2))
        return MlpPolicy(spec, init_mlp_params({"kind": "glorot_normal"}, spec, rng))
    spec = CircuitSpec(3, 2, 2)
    return QuantumPolicy(spec, rng.normal(size=spec.n_params + 1),
                         shots=100 if kind == "shots" else 0)


def test_fisher_rejects_empty_or_mismatched():
    for kind in ("quantum", "classical"):
        policy = small_policy(kind)
        with pytest.raises(ContractError):
            fisher_matrix(policy, np.empty((0, 3)), [])
        with pytest.raises(ContractError):
            fisher_matrix(policy, np.ones((1, 3)), [0, 1])


ROWS = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
BAD_BATCHES = {  # observations, actions, weights
    "empty": (np.empty((0, 3)), [], []),
    "mismatched actions": (ROWS, [0, 1], [1.0, 2.0, 3.0]),
    "action out of range": (ROWS, [0, 2, 1], [1.0, 2.0, 3.0]),
    "negative action": (ROWS, [0, -1, 1], [1.0, 2.0, 3.0]),
    "fractional action": (ROWS, [0, 0.7, 1.9], [1.0, 2.0, 3.0]),
    "wrong-length weights": (ROWS, [0, 1, 1], [1.0, 2.0]),
    "wrong width": (np.ones((3, 4)), [0, 1, 1], [1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("kind", ["quantum", "shots", "classical"])
@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_every_gradient_rejects_a_bad_batch(kind, case):
    # Every gradient takes its batch through `vqpolicy.checked_batch`; the
    # well-formed batch beside each bad one passes.
    policy = small_policy(kind)
    observations, actions, weights = BAD_BATCHES[case]
    calls = [lambda obs, a, w, rng: policy.weighted_grad_log(obs, a, w, rng)]
    if case != "wrong-length weights":
        calls += [lambda obs, a, w, rng: policy.grad_log_batch(obs, a, rng),
                  lambda obs, a, w, rng: fisher_matrix(policy, obs, a, rng=rng)]
    for call in calls:
        with pytest.raises(ContractError):
            call(observations, actions, weights, np.random.default_rng(0))
        assert np.all(np.isfinite(call(ROWS, [0, 1, 1], [1.0, 2.0, 3.0],
                                       np.random.default_rng(0))))


@pytest.mark.parametrize("make_policy", ["quantum", "classical"])
def test_fisher_psd_for_real_policies(make_policy):
    rng = np.random.default_rng(1)
    for trial in range(8):
        if make_policy == "quantum":
            spec = CircuitSpec(3, 2, 2)
            theta = rng.uniform(-np.pi, np.pi, size=spec.n_params)
            policy = QuantumPolicy(spec, np.append(theta, rng.normal(1, 0.1)))
            states = [rng.normal(size=3) for _ in range(6)]
        else:
            spec = MlpSpec((4, 8, 2))
            policy = MlpPolicy(spec, init_mlp_params({"kind": "glorot_normal"}, spec, rng))
            states = [rng.normal(size=4) for _ in range(6)]
        actions = rng.integers(2, size=6)
        f = fisher_matrix(policy, states, actions)
        eigs = spectrum(f).eigenvalues
        assert np.all(eigs >= -1e-8)
        assert np.sum(eigs) == pytest.approx(np.trace(f), abs=1e-8)


def test_fisher_theta_only_mode_drops_beta_coordinate():
    # The quantum policy drops its inverse temperature; the MLP has none, so
    # it keeps every weight.
    rng = np.random.default_rng(2)
    spec = CircuitSpec(2, 1, 2)
    policy = QuantumPolicy(spec, np.append(rng.uniform(-1, 1, size=4), 1.0))
    states = [rng.normal(size=2) for _ in range(4)]
    actions = rng.integers(2, size=4)
    full = fisher_matrix(policy, states, actions)
    assert full.shape == (5, 5)
    np.testing.assert_allclose(fisher_matrix(policy, states, actions, include_beta=False),
                               full[:4, :4], rtol=1e-12)
    spec = MlpSpec((2, 3, 2))
    policy = MlpPolicy(spec, init_mlp_params({"kind": "glorot_normal"}, spec, rng))
    full = fisher_matrix(policy, states, actions)
    assert full.shape == (12, 12)
    np.testing.assert_array_equal(fisher_matrix(policy, states, actions, include_beta=False),
                                  full)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_jacobi_diagonal_matrix():
    report = spectrum(np.diag([1.0, 3.0, 0.0]))
    np.testing.assert_allclose(report.eigenvalues, [3, 1, 0], atol=1e-12)


def test_jacobi_2x2_characteristic_polynomial():
    # [[2,1],[1,2]]: lambda^2 - 4 lambda + 3 = 0 -> 3, 1
    report = spectrum(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(report.eigenvalues, [3.0, 1.0], atol=1e-10)


def test_jacobi_3x3_analytic_tridiagonal():
    # [[2,1,0],[1,2,1],[0,1,2]]: (2-l)((2-l)^2 - 2) = 0 -> 2 +/- sqrt(2), 2
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    np.testing.assert_allclose(
        spectrum(a).eigenvalues, [2 + np.sqrt(2), 2.0, 2 - np.sqrt(2)], atol=1e-10
    )


def test_spectrum_trace_consistency():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(12, 10))
    f = g.T @ g / 12
    report = spectrum(f)
    assert report.trace == pytest.approx(np.trace(f), abs=1e-10)
    assert np.sum(report.eigenvalues) == pytest.approx(report.trace, abs=1e-8)
    assert len(report.eigenvalues) == 10


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------

def test_lemma1_reference_value():
    b = BoundInputs(beta=1, r_max=1, horizon=10, gamma=0.9, epsilon=1, delta=0.1, k=25)
    n, nt = lemma1_samples(b)
    # 8 * 10^2 / (0.1)^4 * ln(500) = 8e6 * ln(500)
    assert n == pytest.approx(8e6 * math.log(500), rel=1e-12)
    assert n == pytest.approx(4.9716865e7, rel=1e-6)
    assert nt == pytest.approx(n * 10, rel=1e-12)


def test_lemma1_log_k_dependence():
    base = BoundInputs(1, 1, 10, 0.9, 1.0, 0.1, 25)
    doubled = BoundInputs(1, 1, 10, 0.9, 1.0, 0.1, 50)
    increment = lemma1_samples(doubled)[0] - lemma1_samples(base)[0]
    assert increment == pytest.approx(8e6 * math.log(2), rel=1e-9)


def test_lemma1_inverse_square_epsilon():
    b1 = BoundInputs(1, 1, 10, 0.9, 1.0, 0.1, 25)
    b2 = BoundInputs(1, 1, 10, 0.9, 2.0, 0.1, 25)
    assert lemma1_samples(b1)[0] == pytest.approx(4 * lemma1_samples(b2)[0], rel=1e-12)


def test_lemma1_gamma_one_singularity():
    with pytest.raises(ContractError):
        lemma1_samples(BoundInputs(1, 1, 10, 1.0, 1.0, 0.1, 25))


def test_lemma2_reference_values():
    b = BoundInputs(1, 1, 10, 0.9, epsilon=0.1, delta=0.05, k=25)
    per_obs, _ = lemma2_shots(b, 100)
    assert per_obs == pytest.approx(400 * math.log(1000), rel=1e-12)
    assert per_obs == pytest.approx(2763.1021, rel=1e-6)


def test_lemma2_total_structure():
    b = BoundInputs(1, 1, 10, 0.9, epsilon=0.1, delta=0.05, k=25, n_actions=2)
    per_obs, total = lemma2_shots(b, 100)
    assert total == pytest.approx(200 * per_obs, rel=1e-12)


def test_lemma2_exact_log_instance():
    # delta = 2/e^2 makes ln(2k/delta) = 2 exactly at k = 1
    b = BoundInputs(1, 1, 10, 0.9, epsilon=1.0, delta=2 / np.e**2, k=1)
    per_obs, _ = lemma2_shots(b, 1)
    assert per_obs == pytest.approx(8.0, rel=1e-12)


def test_bound_monotonicity_grid():
    base = dict(beta=1.0, r_max=1.0, horizon=10, gamma=0.9, epsilon=0.5, delta=0.1, k=8)

    def n_of(**kw):
        return lemma1_samples(BoundInputs(**{**base, **kw}))[0]

    def shots_of(**kw):
        return lemma2_shots(BoundInputs(**{**base, **kw}), 100)[0]

    assert n_of(epsilon=1.0) <= n_of(epsilon=0.5) <= n_of(epsilon=0.25)
    assert n_of(delta=0.2) <= n_of(delta=0.1) <= n_of(delta=0.05)
    assert n_of(k=4) <= n_of(k=8) <= n_of(k=16)
    assert n_of(horizon=5) <= n_of(horizon=10) <= n_of(horizon=20)
    assert n_of(beta=0.5) <= n_of(beta=1.0) <= n_of(beta=2.0)
    assert n_of(r_max=0.5) <= n_of(r_max=1.0) <= n_of(r_max=2.0)
    assert shots_of(epsilon=1.0) <= shots_of(epsilon=0.5)
    assert shots_of(delta=0.2) <= shots_of(delta=0.1)
    assert shots_of(k=4) <= shots_of(k=8)


def test_bound_inputs_validation():
    with pytest.raises(ContractError):
        BoundInputs(1, 1, 10, 0.9, epsilon=0.0, delta=0.1, k=5)
    with pytest.raises(ContractError):
        BoundInputs(1, 1, 10, 0.9, epsilon=0.1, delta=1.5, k=5)
    with pytest.raises(ContractError):
        BoundInputs(1, 1, 0, 0.9, epsilon=0.1, delta=0.1, k=5)


# ---------------------------------------------------------------------------
# Hoeffding validation
# ---------------------------------------------------------------------------

def test_hoeffding_validate_zero_trials():
    b = BoundInputs(1, 1, 10, 0.99, epsilon=0.2, delta=0.1, k=4)
    report = hoeffding_validate(b, 0, np.random.default_rng(0))
    assert report.trials == 0
    assert report.failures == 0
    assert report.passed


def test_hoeffding_validate_quick_instance():
    # small-trial smoke check; the acceptance suite runs the full 500 trials
    b = BoundInputs(1, 1, 10, 0.99, epsilon=0.2, delta=0.1, k=4)
    report = hoeffding_validate(b, 60, np.random.default_rng(7))
    assert report.failure_rate <= b.delta
    assert report.shots_per_observable == math.ceil(100 * math.log(80))
    assert report.max_deviation < b.epsilon


def test_hoeffding_rejects_negative_trials():
    b = BoundInputs(1, 1, 10, 0.99, epsilon=0.2, delta=0.1, k=4)
    with pytest.raises(ContractError):
        hoeffding_validate(b, -5, np.random.default_rng(0))


def test_default_probe_is_three_pulse_free_steps_from_zero():
    # the amplitude row equals the gate-by-gate oracle's three evolutions
    # under H = sigma_x, bit for bit
    state = init_zero(1)
    for _ in range(3):
        state = evolve_hamiltonian(state, 0.0, 1.0, np.pi / 20)
    spec, _, row = analysis._default_probe()
    assert row.shape == (2,) and spec.n_qubits == 1
    assert row.tobytes() == state.amplitudes.tobytes()

