import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    mechanism_pairs,
    rock_correlation_by_arcs,
    rock_correlation_by_grid,
    rock_pairs,
    vessels_pairs,
)
from seplab import cli
from seplab.bell import chsh_exact, chsh_sampled, correlation, no_signaling_residual
from seplab.classical_models import (
    TOTAL_VOLUME,
    VOLUME_THRESHOLD,
    rock_expectation,
    rock_model,
    rod_dice_model,
    vessels_model,
)


def test_rock_expectation_frozen_points():
    assert rock_expectation(0.7, 0.7) == pytest.approx(-1.0, abs=1e-15)
    assert rock_expectation(0.0, math.pi) == pytest.approx(1.0, abs=1e-15)
    # half-circle overlap at quarter-turn separation kills the correlation
    assert rock_expectation(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


@given(ta=st.floats(0, 2 * math.pi), tb=st.floats(0, 2 * math.pi))
@settings(max_examples=80, deadline=None)
def test_rock_expectation_matches_arc_oracle(ta, tb):
    assert rock_expectation(ta, tb) == pytest.approx(
        rock_correlation_by_arcs(ta, tb), abs=1e-9
    )


def test_rock_expectation_matches_quadrature_and_monte_carlo():
    for ta, tb in [(0.2, 1.5), (3.0, 0.4), (5.9, 2.2)]:
        closed = rock_expectation(ta, tb)
        assert closed == pytest.approx(rock_correlation_by_grid(ta, tb), abs=2e-4)
        n = 40_000
        pairs = rock_pairs(ta, tb, n, np.random.default_rng(8))
        est = float((pairs[:, 0] * pairs[:, 1]).mean())
        stderr = math.sqrt(max(1 - est * est, 1e-6) / n)
        assert abs(est - closed) < 4 * stderr


def test_rock_exact_tables_have_uniform_marginals():
    model = rock_model()
    for i in range(2):
        for j in range(2):
            table = model.tables[i, j]  # index 0 is the outcome +1, index 1 is -1
            assert table.sum() == pytest.approx(1.0, abs=1e-12)
            for k in range(2):
                assert table[k].sum() == pytest.approx(0.5, abs=1e-12)
    assert no_signaling_residual(model) <= 1e-12


def test_rock_chsh_saturates_classical_bound_at_default_settings():
    report = chsh_exact(rock_model())
    # E = 2*Delta/pi - 1 gives -1/2 everywhere except +1/2 on the (2,2) cell
    assert report.e_table[0][0] == pytest.approx(-0.5, abs=1e-12)
    assert report.e_table[0][1] == pytest.approx(-0.5, abs=1e-12)
    assert report.e_table[1][0] == pytest.approx(-0.5, abs=1e-12)
    assert report.e_table[1][1] == pytest.approx(+0.5, abs=1e-12)
    assert abs(report.s) == pytest.approx(2.0, abs=1e-12)


def test_rock_hidden_variable_enumeration_respects_classical_bound():
    # brute-force demarcation witness: discretize the hidden direction and
    # enumerate every CHSH combination on a 17^4 angle grid
    n_lambda = 10_000
    lam = (np.arange(n_lambda) + 0.5) * (2 * math.pi / n_lambda)
    angles = np.linspace(0.0, 2 * math.pi, 17)
    a_resp = np.where(np.cos(angles[:, None] - lam[None, :]) > 0, 1, -1)
    b_resp = np.where(np.cos(angles[:, None] - (lam[None, :] + math.pi)) > 0, 1, -1)
    e_grid = (a_resp @ b_resp.T) / n_lambda  # E[i, j] over the lambda grid
    s = (
        e_grid[:, None, :, None]
        + e_grid[:, None, None, :]
        + e_grid[None, :, :, None]
        - e_grid[None, :, None, :]
    )
    assert float(np.abs(s).max()) <= 2.0 + 1e-6


def test_rock_never_violates_the_classical_bound_on_the_pi_8_grid():
    # rounding takes |S| to 2 + 4e-16 on some of these sets; the verdict must
    # still be "within classical 2", in the report and in the CLI's line
    grid = [k * math.pi / 8 for k in range(16)]
    for a2, b1, b2 in itertools.product(grid, repeat=3):
        report = chsh_exact(rock_model((0.0, a2), (b1, b2)))
        assert not report.violates_classical, (a2, b1, b2, report.s)
        assert cli._bound_line(report) == f"|S| = {abs(report.s):.4f} within classical 2"


def test_rod_dice_expected_table_and_chsh():
    model = rod_dice_model()
    expected = [[1.0, 1.0], [1.0, -1.0]]
    for i in range(2):
        for j in range(2):
            table = model.tables[i, j]
            assert table.sum() == pytest.approx(1.0, abs=1e-15)
            assert correlation(table) == pytest.approx(expected[i][j])
            for k in range(2):
                assert table[k].sum() == 0.5
    assert chsh_exact(model).s == pytest.approx(4.0, abs=1e-15)
    assert no_signaling_residual(model) <= 1e-15


def test_rod_dice_sampled_products_are_deterministic_per_cell():
    report = chsh_sampled(rod_dice_model(), 10_000, np.random.default_rng(21))
    assert report.s == 4.0


def test_vessels_expected_table_and_chsh():
    model = vessels_model()
    # settings ordered (reference, siphon) per side
    assert model.settings_a == ("reference", "siphon")
    expected = [[1.0, 1.0], [1.0, -1.0]]
    for i in range(2):
        for j in range(2):
            assert correlation(model.tables[i, j]) == pytest.approx(expected[i][j])
    # the lone-siphon branch drains everything and reports (+1, +1)
    assert model.tables[1, 0][0, 0] == 1.0
    assert chsh_exact(model).s == pytest.approx(4.0, abs=1e-15)


def test_vessels_tie_splits_to_minus_minus():
    class HalfRng:
        def random(self, n=None):
            return 0.5 if n is None else np.full(n, 0.5)

    [(a, b)] = vessels_pairs(True, True, 1, HalfRng())
    assert (a, b) == (-1, -1)  # exactly 10 L each: strict threshold fails both


def test_vessels_siphon_siphon_splits_exactly_one_winner():
    pairs = vessels_pairs(True, True, 5_000, np.random.default_rng(2))
    assert set(map(tuple, pairs)) <= {(1, -1), (-1, 1)}
    frac_plus = float((pairs[:, 0] == 1).mean())
    assert abs(frac_plus - 0.5) < 4 * math.sqrt(0.25 / 5_000)


def test_vessels_marginals_shift_under_lone_siphon():
    # the tube is a physical channel: siphoning alone yields 20 L (certain +1),
    # siphoning against a siphoning partner yields a fair +-1 coin
    model = vessels_model()
    residual = no_signaling_residual(model)
    assert residual == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "factory, mechanism",
    [(rock_model, "rock"), (rod_dice_model, "rod-dice"), (vessels_model, "vessels")],
    ids=["rock", "dice", "vessels"],
)
def test_sampled_frequencies_match_exact_tables(factory, mechanism):
    # the oracle simulates the physical mechanism; the table must agree with
    # it entry by entry
    model = factory()
    n = 20_000
    rng = np.random.default_rng(13)
    for i in range(2):
        for j in range(2):
            pairs = mechanism_pairs(mechanism, i, j, n, rng)
            for (ka, a), (kb, b) in itertools.product(enumerate((+1, -1)), repeat=2):
                p = model.tables[i, j][ka, kb]
                freq = float(((pairs[:, 0] == a) & (pairs[:, 1] == b)).mean())
                stderr = math.sqrt(max(p * (1 - p), 1e-9) / n)
                assert abs(freq - p) < 4 * stderr + 1e-12


def test_volume_constants():
    assert TOTAL_VOLUME == 20.0
    assert VOLUME_THRESHOLD == 10.0
    assert vessels_model().settings_b == ("reference", "siphon")
