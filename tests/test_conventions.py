"""Package-wide conventions: one tolerance table, one bad-argument error."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from seplab import hilbert
from seplab.bipartite import BipartiteSpace, joint_measurement
from seplab.errors import InvalidArgument
from seplab.hilbert import Operator, StateVector, basis_vector, haar_projector, normalize
from seplab.measurement import Outcome, Pvm, binary_pvm, pvm_from_operator
from seplab.product_test import (
    TestableEntity,
    epr_protocol,
    flaky_entity,
    meet_actual,
    wooden_cube,
)
from seplab.separation import construct_witness, no_cloning_witness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "seplab"


def _tolerance_table() -> dict[str, ast.Assign]:
    """The run of ``NAME = <float>`` statements directly after ``DIM_CAP`` in
    hilbert.py, keyed by name."""
    body = ast.parse((SRC / "hilbert.py").read_text(encoding="utf-8")).body
    start = next(k for k, node in enumerate(body) if ast.unparse(node).startswith("DIM_CAP = "))
    table = {}
    for node in body[start + 1:]:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, float)):
            break
        table[node.targets[0].id] = node
    return table


def test_tolerance_table_is_the_only_place_with_a_tolerance():
    table = _tolerance_table()
    assert {"HERMITIAN_TOL", "PROJECTOR_TOL", "POSSIBILITY_TOL", "CHSH_BOUND_MARGIN"} <= set(table)
    for name, node in table.items():
        assert getattr(hilbert, name) == node.value.value
    declared = {(node.value.lineno, node.value.col_offset) for node in table.values()}
    strays = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) < 1e-6):
                if path.name != "hilbert.py" or (node.lineno, node.col_offset) not in declared:
                    strays.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not strays, f"tolerances outside the hilbert.py table: {strays}"


def test_readme_lists_every_tolerance():
    source = (SRC / "hilbert.py").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = " ".join(readme.split("\n- Tolerances", 1)[1].split("\n- ", 1)[0].split())
    listed = set(re.findall(r"`([A-Z_]+ = [0-9.e-]+)`", bullet))
    declared = {ast.get_source_segment(source, node) for node in _tolerance_table().values()}
    assert listed == declared


# bench/test_bench.py traces seplab.bipartite.tensor_op, a binding nothing else uses
KEPT_IMPORTS = {("bipartite.py", "tensor_op")}


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports but never reads; a name listed in ``__all__``
    counts as read, since the package re-exports it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_every_import_is_used():
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(_unused_imports(path))
        if (path.name, name) not in KEPT_IMPORTS
    ]
    assert not unused, f"imported but unused: {unused}"


_UNIT = StateVector(np.array([1.0, 0.0]))
_TWICE = Operator(2.0 * np.eye(2))
_AB = (Outcome("a"), Outcome("b"))
_P0 = Operator(np.diag([1.0, 0.0]))
_THREE_LEVELS = Operator(np.diag([0.0, 1.0, 2.0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: StateVector(np.zeros((2, 2))),
        lambda: StateVector(np.zeros(0)),
        lambda: Operator(np.zeros((2, 3))),
        lambda: Operator(np.zeros((hilbert.DIM_CAP + 1,) * 2)),
        lambda: basis_vector(2, 2),
        lambda: normalize(StateVector(np.zeros(2))),
        lambda: Pvm((Outcome("a"), Outcome("a")), np.eye(2), (1, 1)),
        lambda: Pvm(_AB, np.eye(2), (2,)),
        lambda: binary_pvm(_TWICE),
        lambda: Pvm(_AB, np.array([[1.0, 1.0], [0.0, 0.0]]), (1, 1)),
        lambda: Pvm(_AB, np.array([[1.0, 0.0], [0.0, 0.0]]), (1, 1)),
        lambda: BipartiteSpace(0, 2),
        lambda: TestableEntity("e", "s", {"t": 1.0 + 1e-11}),  # past PROBABILITY_TOL
        lambda: wooden_cube("soggy"),
        lambda: meet_actual(wooden_cube(), [], 1, np.random.default_rng(0)),
        lambda: epr_protocol(StateVector(np.eye(4)[0]), rng=None),
        lambda: epr_protocol(StateVector(np.eye(4)[0]), (), rng=np.random.default_rng(0)),
        lambda: construct_witness(  # a witness needs two outcomes on each side
            joint_measurement(pvm_from_operator(_THREE_LEVELS), binary_pvm(_P0)),
            np.random.default_rng(0),
        ),
        lambda: no_cloning_witness(StateVector(np.array([math.sqrt(2.0), 0.0])), _UNIT),
        lambda: meet_actual(wooden_cube(), [], 0, np.random.default_rng(0)),  # no trial to draw
        lambda: haar_projector(4, -1, np.random.default_rng(0)),
        lambda: haar_projector(2, 5, np.random.default_rng(0)),
        lambda: flaky_entity(1.5),
        lambda: flaky_entity(-0.5),
        lambda: Pvm(_AB, np.eye(2), (3, -1)),  # a negative size
        lambda: Pvm(_AB, np.eye(2), (1, 2)),  # sizes that do not sum to d
        lambda: Pvm(_AB, np.eye(3)[:, :2], (1, 1)),  # a non-square basis
        lambda: Pvm(_AB, np.eye(hilbert.DIM_CAP + 1), (1, hilbert.DIM_CAP)),
        lambda: Pvm(_AB, np.diag([np.nan, 1.0]), (1, 1)),
        lambda: binary_pvm(Operator(np.diag([np.nan, 1.0]))),
        lambda: Pvm(_AB, np.eye(2), (1.5, 0.5)),  # sizes that sum to d but are not integers
        lambda: Pvm(_AB, np.eye(2), 2),  # sizes that are not a sequence
        lambda: flaky_entity(math.nan),
        lambda: TestableEntity("e", "s", {"t": math.inf}),
        # trials < 1
        lambda: meet_actual(wooden_cube("wet"), ["burn"], -5, np.random.default_rng(0)),
        lambda: meet_actual(wooden_cube(), ["burn"], 0, np.random.default_rng(0)),
        # a non-finite state, refused when built rather than read as a nan verdict
        lambda: no_cloning_witness(StateVector(np.array([math.nan, 0.0])), _UNIT),
    ],
)
def test_bad_arguments_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument):
        call()
