"""seplab: finite-dimensional measurement separability toolkit.

Simulates projective quantum measurements on small Hilbert spaces and runs
the experiments that demarcate quantum from classical correlation behavior:
separability witnesses for joint measurements, CHSH evaluation for quantum
states and macroscopic coincidence models, Piron product tests, the
measure-one-predict-the-other protocol, and a cloning obstruction check.
"""

__version__ = "0.6.1"

from . import bell, bipartite, classical_models, hilbert, measurement, product_test, separation
from .errors import SeplabError

__all__ = [
    "bell",
    "bipartite",
    "classical_models",
    "hilbert",
    "measurement",
    "product_test",
    "separation",
    "SeplabError",
    "__version__",
]
