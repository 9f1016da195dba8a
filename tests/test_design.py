"""Design rules checked on the source: every result field has a reader."""

import ast
from pathlib import Path

import meritrank

SOURCES = sorted(Path(meritrank.__file__).parent.glob("*.py"))
# The benchmark's tracer reads results too (`SpearmanResult.n` counts exact p-values).
TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

# Fields kept although neither the package nor the tracer reads them, each for its reason.
UNREAD_FIELDS_KEPT = {
    "MeasuredStats.n_researchers": "acceptance criterion 9 reports the number of scored researchers",
    "CalibrationResult.measured": "acceptance criterion 9 reads the shares the calibrated profile reached",
    "GeneratorProfile.concentration_target": "metadata.json echoes it; dropping it changes the pinned corpus bytes",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_has_a_reader():
    """Each dataclass field of the package is read as an attribute in the package or the tracer."""
    fields = set()
    read = set()
    for path in [*SOURCES, TRACER]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) and path in SOURCES:
                fields.update(
                    f"{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert set(UNREAD_FIELDS_KEPT) <= fields
    unread = sorted(f for f in fields - set(UNREAD_FIELDS_KEPT) if f.split(".")[1] not in read)
    assert unread == []
