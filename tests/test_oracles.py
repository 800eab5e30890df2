import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_nothing_from_the_package():
    # an oracle that reuses package code would check the package against itself
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "parsed no imports at all"
    offending = [name for name in imported if name.split(".")[0] in ("seplab", "")]
    assert not offending, f"tests/oracles.py imports {offending}"
