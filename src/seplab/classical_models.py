"""Three macroscopic coincidence experiments with exactly enumerable tables.

Each model is a ``bell.CoincidenceModel``: its settings per side and its
exact outcome-pair tables ``tables[i, j, a, b]`` (index 0 the outcome +1,
index 1 the outcome -1); the mechanisms below are what those tables
enumerate.  Sampled CHSH draws from the tables, and the test suite keeps an
independent sampler of each mechanism (``tests/oracles.py``) that is checked
against them.

Exploding rock.  A rock at rest splits into two equal fragments flying apart
with opposite momenta.  The shared hidden variable is the direction lambda of
fragment A's momentum, uniform on the circle; a station at analyzer angle
theta reports +1 when the fragment's momentum has positive component along
theta.  Fragment B carries direction lambda + pi.  The correlation has the
closed form E = 2*Delta/pi - 1 with Delta the angular distance between the
analyzer angles: the correlation exists before anyone measures, it is only
discovered, and no setting choice pushes |S| past the classical bound 2.

Rod-connected dice.  Two dice joined by a rigid rod so that reading them is
a single mechanical event.  Per setting pair the joint outcome is drawn
fresh: equal same-sign outcomes for every pair except the second-second
pair, which gives equal opposite-sign outcomes.  Marginals stay uniform, the
correlation table is [[1, 1], [1, -1]], and S = 4: the correlation is
created by the joint execution itself, and no per-side hidden variable can
reproduce the table.

Connected vessels.  Two vessels joined by a tube holding 20 L of water in
total.  Each station either consults a reference gauge (R, deterministically
+1) or siphons and reports +1 iff it collects strictly more than 10 L (S).
When both siphon, the water splits V_A = 20u (u uniform), V_B = 20 - V_A, so
exactly one side passes the threshold and E(S,S) = -1; a lone siphon drains
all 20 L and reports +1.  With settings ordered (R, S) the table is
[[1, 1], [1, -1]] and S = 4.  An exact 10/10 split has probability zero, so
the table gives (-1, -1) no weight, although a sampled split landing on it
exactly would fail the strict threshold on both sides.  Note the model is
signalling by construction: a siphoning station's marginal depends on whether
the partner station also siphons (the tube is a real physical channel
between the stations).
"""

from __future__ import annotations

import math

from .bell import DEFAULT_ANGLES_A, DEFAULT_ANGLES_B, CoincidenceModel

TOTAL_VOLUME = 20.0
VOLUME_THRESHOLD = 10.0


def angular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def rock_expectation(theta_a: float, theta_b: float) -> float:
    """Closed-form fragment correlation: 2*Delta/pi - 1."""
    return 2.0 * angular_distance(theta_a, theta_b) / math.pi - 1.0


def _uniform_marginals(e: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The outcome-pair table with fair +/-1 marginals and correlation e."""
    same, diff = (1.0 + e) / 4.0, (1.0 - e) / 4.0
    return ((same, diff), (diff, same))


def rock_model(settings_a=DEFAULT_ANGLES_A, settings_b=DEFAULT_ANGLES_B) -> CoincidenceModel:
    """Exploding-rock stations at the given analyzer angles."""
    settings_a = tuple(float(t) for t in settings_a)
    settings_b = tuple(float(t) for t in settings_b)
    tables = [[_uniform_marginals(rock_expectation(a, b)) for b in settings_b] for a in settings_a]
    return CoincidenceModel(settings_a, settings_b, tables)


def rod_dice_model() -> CoincidenceModel:
    """Rod-connected dice; settings are the two readout modes per side."""
    equal, opposite = _uniform_marginals(1.0), _uniform_marginals(-1.0)
    modes = ("mode-1", "mode-2")
    return CoincidenceModel(modes, modes, [[equal, equal], [equal, opposite]])


def vessels_model() -> CoincidenceModel:
    """Connected vessels; setting 0 is the reference gauge R, setting 1 the
    siphon test S (+1 iff collected volume exceeds the 10 L threshold)."""
    plus = ((1.0, 0.0), (0.0, 0.0))  # any lone siphon drains the full 20 L: (+1, +1)
    settings = ("reference", "siphon")
    tables = [[plus, plus], [plus, _uniform_marginals(-1.0)]]
    return CoincidenceModel(settings, settings, tables)
