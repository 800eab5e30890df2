import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eig2_hermitian, horodecki_chsh_bound, lhv_chsh_from_table, random_state
from seplab import bell
from seplab.bell import (
    DEFAULT_ANGLES_A,
    DEFAULT_ANGLES_B,
    CoincidenceModel,
    chsh_exact,
    chsh_sampled,
    correlation,
    no_signaling_residual,
    quantum_coincidence_model,
    spin_observable,
)
from seplab.bipartite import joint_measurement
from seplab.classical_models import rod_dice_model
from seplab.errors import DimensionMismatch, InvalidArgument
from seplab.hilbert import SIGMA_X, SIGMA_Z, StateVector
from seplab.measurement import SIGNS, pvm_from_operator

ROOT_HALF = 1 / math.sqrt(2)
SINGLET = StateVector(np.array([0, ROOT_HALF, -ROOT_HALF, 0]))
ZERO_ZERO = StateVector(np.array([1, 0, 0, 0]))


def test_expectation_examples():
    # spin angle 0 is Z and pi/2 is X: E(Z, Z) and E(Z, X)
    singlet = correlation(quantum_coincidence_model(SINGLET, (0.0,), (0.0, math.pi / 2)).tables)
    assert singlet[0] == pytest.approx([-1.0, 0.0], abs=1e-12)
    product = correlation(quantum_coincidence_model(ZERO_ZERO, (0.0,), (0.0,)).tables)
    assert product[0][0] == pytest.approx(1.0, abs=1e-12)


def test_spin_observable_axes_and_spectrum():
    np.testing.assert_allclose(spin_observable(0.0).entries, SIGMA_Z.entries, atol=1e-15)
    np.testing.assert_allclose(
        spin_observable(math.pi / 2).entries, SIGMA_X.entries, atol=1e-15
    )
    diagonal = spin_observable(math.pi / 4)
    values = [v for v, _ in eig2_hermitian(diagonal.entries)]
    assert values == pytest.approx([-1.0, 1.0], abs=1e-12)


def _eigh_pvm(theta: float):
    """The spin PVM through ``eigh``, with the outcome indices that put +1 first."""
    pvm = pvm_from_operator(spin_observable(theta))
    return pvm, np.argsort([-o.value for o in pvm.outcomes])


ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]),
    st.floats(-10.0, 10.0),
)


@given(theta=ANGLES)
@settings(max_examples=100, deadline=None)
def test_spin_pvm_is_the_spin_observable_eigenbasis_plus_first(theta):
    pvm = bell._spin_pvm(theta)
    assert pvm.outcomes == SIGNS and pvm.sizes == (1, 1)
    reference, order = _eigh_pvm(theta)
    for projector, k in zip(pvm.projectors, order):
        np.testing.assert_allclose(
            projector.entries, reference.projectors[k].entries, rtol=0, atol=1e-14
        )


@given(seed=st.integers(0, 2**32 - 1), angles=st.lists(ANGLES, min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_quantum_tables_match_the_eigh_built_tables(seed, angles):
    psi = StateVector(random_state(4, np.random.default_rng(seed)))
    model = quantum_coincidence_model(psi, angles[:2], angles[2:])
    side_b = [_eigh_pvm(t) for t in angles[2:]]
    for i, (ma, ra) in enumerate(map(_eigh_pvm, angles[:2])):
        for j, (mb, rb) in enumerate(side_b):
            table = joint_measurement(ma, mb).table(psi)[np.ix_(ra, rb)]
            np.testing.assert_allclose(model.tables[i, j], table, rtol=0, atol=1e-14)


def test_quantum_coincidence_model_runs_no_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on the coincidence path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    model = quantum_coincidence_model(SINGLET, DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    assert abs(chsh_exact(model).s) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def singlet_correlation(theta_a: float, theta_b: float) -> float:
    """Closed-form oracle for the singlet: E = -cos(theta_a - theta_b)."""
    return -math.cos(theta_a - theta_b)


def test_chsh_exact_singlet_at_default_angles():
    model = quantum_coincidence_model(SINGLET, DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    report = chsh_exact(model)
    for i, ta in enumerate(DEFAULT_ANGLES_A):
        for j, tb in enumerate(DEFAULT_ANGLES_B):
            assert report.e_table[i][j] == pytest.approx(
                singlet_correlation(ta, tb), abs=1e-12
            )
            assert abs(report.e_table[i][j]) <= 1.0 + 1e-9
    assert abs(report.s) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert report.violates_classical and not report.violates_tsirelson
    # the singlet reaches the Horodecki bound of its correlation matrix
    assert horodecki_chsh_bound(SINGLET.amplitudes) == pytest.approx(abs(report.s), abs=1e-12)


def test_chsh_exact_e_table_at_legacy_b_angles():
    # with B in {pi/4, 3pi/4} every correlation is -sqrt(2)/2 except E(1,2)
    model = quantum_coincidence_model(
        SINGLET, (0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4)
    )
    e = chsh_exact(model).e_table
    assert e[0][0] == pytest.approx(-ROOT_HALF, abs=1e-12)
    assert e[0][1] == pytest.approx(+ROOT_HALF, abs=1e-12)
    assert e[1][0] == pytest.approx(-ROOT_HALF, abs=1e-12)
    assert e[1][1] == pytest.approx(-ROOT_HALF, abs=1e-12)


def test_coincidence_model_checks_its_table():
    cell = [[0.25, 0.25], [0.25, 0.25]]
    with pytest.raises(InvalidArgument, match="shape"):
        CoincidenceModel((0, 1), (0, 1), [[cell, cell]])
    with pytest.raises(InvalidArgument, match="shape"):
        CoincidenceModel((0,), (0,), [[[0.5, 0.5]]])
    with pytest.raises(InvalidArgument, match="at least one setting"):
        CoincidenceModel((), (0,), np.zeros((0, 1, 2, 2)))
    with pytest.raises(InvalidArgument, match="finite"):
        CoincidenceModel((0,), (0,), [[[[0.5, math.nan], [0.0, 0.5]]]])
    for bad in (np.zeros((2, 2, 2, 2)), np.full((2, 2, 2, 2), 0.5)):  # cells sum to 0 and 2
        with pytest.raises(InvalidArgument, match="probability distribution"):
            CoincidenceModel((0, 1), (0, 1), bad)
    with pytest.raises(InvalidArgument, match="probability distribution"):
        CoincidenceModel((0,), (0,), [[[[1.5, -0.5], [0.0, 0.0]]]])
    CoincidenceModel((0,), (0,), [[[[0.5 + 1e-13, -1e-13], [0.25, 0.25]]]])  # rounding passes
    source = np.array([[cell]])
    model = CoincidenceModel(["x"], ["y"], source)
    source[0, 0, 0, 0] = 1.0  # the model holds its own read-only copy
    assert model.tables[0, 0, 0, 0] == 0.25
    assert model.settings_a == ("x",)
    with pytest.raises(ValueError):
        model.tables[0, 0, 0, 0] = 1.0


def test_model_with_only_a_table_is_sampled():
    cell = [[0.4, 0.1], [0.2, 0.3]]  # rows: A = +1, -1; columns: B = +1, -1
    model = CoincidenceModel(("x", "y"), ("x", "y"), [[cell, cell], [cell, cell]])

    n = 40_000
    report = chsh_sampled(model, n, np.random.default_rng(12))
    assert report.samples_per_cell == n
    e_exact = 0.4 + 0.3 - 0.1 - 0.2
    sigma = math.sqrt((1 - e_exact**2) / n)
    for row, se_row in zip(report.e_table, report.stderr):
        for e, se in zip(row, se_row):
            assert abs(e - e_exact) < 5 * sigma
            assert se == pytest.approx(math.sqrt((1 - e * e) / n), rel=1e-12)


def test_chsh_needs_two_settings_per_side():
    model = quantum_coincidence_model(SINGLET, (0.0,), (0.0,))
    with pytest.raises(ValueError):
        chsh_exact(model)
    with pytest.raises(ValueError):
        chsh_sampled(model, 10, np.random.default_rng(0))
    with pytest.raises(InvalidArgument):
        chsh_sampled(quantum_coincidence_model(SINGLET, DEFAULT_ANGLES_A, DEFAULT_ANGLES_B), 0,
                     np.random.default_rng(0))


def test_quantum_coincidence_model_needs_a_qubit_pair():
    with pytest.raises(DimensionMismatch):
        quantum_coincidence_model(StateVector(np.array([1, 0])), (0.0,), (0.0,))


def test_chsh_exact_rod_dice_through_uniform_interface():
    report = chsh_exact(rod_dice_model())
    assert report.s == pytest.approx(4.0, abs=1e-12)
    assert report.violates_tsirelson


def test_quantum_model_aligned_singlet_distribution():
    model = quantum_coincidence_model(SINGLET, (0.3, 1.0), (0.3, 1.0))
    table = model.tables[0, 0]  # index 0 is the outcome +1, index 1 is -1
    assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert table[1, 1] == pytest.approx(0.0, abs=1e-12)
    assert table[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert table[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_quantum_model_product_eigenstate():
    model = quantum_coincidence_model(ZERO_ZERO, (0.0, 1.0), (0.0, 1.0))
    assert model.tables[0, 0][0, 0] == pytest.approx(1.0, abs=1e-12)


def reduced_density_marginal(psi: np.ndarray, side: int, theta: float) -> dict[int, float]:
    """Partial-trace oracle: marginal outcome probabilities from the reduced
    density matrix, independent of the joint-PVM path."""
    m = psi.reshape(2, 2)
    rho = m @ m.conj().T if side == 0 else m.T @ m.conj()
    pairs = eig2_hermitian(
        math.cos(theta) * np.diag([1.0, -1.0]) + math.sin(theta) * np.array([[0, 1], [1, 0]])
    )
    out = {}
    for value, vec in pairs:
        out[int(round(value))] = float(np.real(vec.conj() @ rho @ vec))
    return out


def test_singlet_marginals_uniform_at_every_setting():
    model = quantum_coincidence_model(SINGLET, (0.0, 0.7), (1.1, 2.3))
    for i in range(2):
        for j in range(2):
            for k, a in enumerate((+1, -1)):
                marg = float(model.tables[i, j][k].sum())
                oracle = reduced_density_marginal(
                    SINGLET.amplitudes, 0, model.settings_a[i]
                )[a]
                assert marg == pytest.approx(0.5, abs=1e-12)
                assert marg == pytest.approx(oracle, abs=1e-12)


def test_no_signaling_exact_quantum_and_rod_dice():
    model = quantum_coincidence_model(SINGLET, DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    assert no_signaling_residual(model) <= 1e-12
    assert no_signaling_residual(rod_dice_model()) <= 1e-12


def test_chsh_sampled_rod_dice_is_exact():
    report = chsh_sampled(rod_dice_model(), 10_000, np.random.default_rng(5))
    assert report.s == pytest.approx(4.0, abs=0.0)
    assert all(se == 0.0 for row in report.stderr for se in row)


def test_chsh_sampled_reproducible_even_at_one_sample():
    model = quantum_coincidence_model(SINGLET, DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    a = chsh_sampled(model, 1, np.random.default_rng(3))
    b = chsh_sampled(model, 1, np.random.default_rng(3))
    assert a.e_table == b.e_table
    assert a.samples_per_cell == 1


def test_chsh_sampled_close_to_exact_for_singlet():
    model = quantum_coincidence_model(SINGLET, DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    report = chsh_sampled(model, 20_000, np.random.default_rng(17))
    assert abs(abs(report.s) - 2.0 * math.sqrt(2.0)) < 0.05


@given(seed=st.integers(0, 100_000), n_hidden=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_finite_hidden_variable_models_never_beat_classical_bound(seed, n_hidden):
    rng = np.random.default_rng(seed)
    a_resp = rng.choice([-1, 1], size=(2, n_hidden))
    b_resp = rng.choice([-1, 1], size=(2, n_hidden))
    weights = rng.random(n_hidden)
    weights = weights / weights.sum()
    s = lhv_chsh_from_table(a_resp, b_resp, weights)
    assert abs(s) <= 2.0 + 1e-9


@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_quantum_chsh_never_beats_tsirelson(seed):
    rng = np.random.default_rng(seed)
    psi = StateVector(random_state(4, rng))
    angles = rng.uniform(0, 2 * math.pi, size=4)
    model = quantum_coincidence_model(psi, angles[:2], angles[2:])
    report = chsh_exact(model)
    assert abs(report.s) <= 2.0 * math.sqrt(2.0) + 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_quantum_chsh_never_beats_horodecki_bound(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(4, rng)
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=4)
    report = chsh_exact(quantum_coincidence_model(StateVector(psi), angles[:2], angles[2:]))
    assert abs(report.s) <= horodecki_chsh_bound(psi) + 1e-9


def test_sampled_cells_track_exact_within_error_budget():
    # 4 cells x 50 seeded runs = 200 checks; the 4-sigma budget allows 1%
    model = quantum_coincidence_model(SINGLET, DEFAULT_ANGLES_A, DEFAULT_ANGLES_B)
    exact = chsh_exact(model)
    n = 500
    checks = ok = 0
    for seed in range(50):
        sampled = chsh_sampled(model, n, np.random.default_rng(seed))
        for i in range(2):
            for j in range(2):
                se = max(sampled.stderr[i][j], 1e-12)
                checks += 1
                ok += int(abs(sampled.e_table[i][j] - exact.e_table[i][j]) < 4 * se)
    assert ok / checks >= 0.99


@given(
    seed=st.integers(0, 2**32 - 1),
    angles=st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=4, max_size=4),
    # counts are one multinomial draw per cell, so even 2e9 trials per cell
    # need no per-trial memory
    n=st.integers(1_000, 2_000_000_000),
)
@settings(max_examples=60, deadline=None)
def test_sampled_cells_within_five_sigma_of_exact_and_seeded(seed, angles, n):
    psi = StateVector(random_state(4, np.random.default_rng(seed)))
    model = quantum_coincidence_model(psi, angles[:2], angles[2:])
    exact = chsh_exact(model)
    sampled = chsh_sampled(model, n, np.random.default_rng(seed))
    for i in range(2):
        for j in range(2):
            e = exact.e_table[i][j]
            sigma = math.sqrt(max(1.0 - e * e, 0.0) / n)
            assert abs(sampled.e_table[i][j] - e) <= 5 * sigma + 1e-12
    again = chsh_sampled(model, n, np.random.default_rng(seed))
    assert again.e_table == sampled.e_table
    assert again.stderr == sampled.stderr

