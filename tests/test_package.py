"""The package's public surface and the hygiene of its imports."""

import ast
import types
from pathlib import Path

import skewprod

SRC = Path(skewprod.__file__).parent

PUBLIC = [
    "AsymptoticRate", "CASE1", "CASE2", "CASE3", "CASE4", "CaseData",
    "CqnBounds", "FuzzConfig", "FuzzSummary", "GermFileError", "INF",
    "Interval", "InvalidGermError", "KERNEL_BACKEND", "NewtonPolygon",
    "PolyParseError", "RatePrediction", "ResourceCapError",
    "ResourceLimits", "SkewGerm", "SparsePoly2", "VerificationReport",
    "VertexClaim", "asymptotic", "case_variants", "classify",
    "compose_germ", "critical_coeff_sequence", "dominant_term",
    "equality_interval", "format_exact", "format_germ_file", "format_poly",
    "fuzz", "gamma_n", "geometric_sum", "iterate_germ", "newton_polygon",
    "parse_germ_file", "parse_poly", "parse_rational", "predict",
    "predict_adjacent_vertices", "predict_cfn", "predict_cqn_bounds",
    "predict_weight", "r_map", "r_step", "substitute", "theorem_bracket",
    "vanishing_sum", "verify_germ", "weight", "weight_intervals",
]


def test_public_names():
    """Submodules are left out: importing one (skewprod.cli, say) binds
    it on the package, so they depend on what ran before."""
    names = sorted(name for name, value in vars(skewprod).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def unused_imports(source: str) -> list:
    """Names an import binds that the module never reads, string
    annotations included."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))
                   and node.annotation is not None]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    quoted = [ast.parse(node.value, mode="eval")
              for annotation in annotations
              for node in ast.walk(annotation)
              if isinstance(node, ast.Constant)
              and isinstance(node.value, str)]
    used = {node.id for root in [tree] + quoted for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("from fractions import Fraction\n"
              "from .exact import as_coeff, as_fraction\n"
              "import os.path\n"
              "def f(x) -> 'Fraction':\n"
              "    return as_fraction(x)\n")
    assert unused_imports(source) == [(2, "as_coeff"), (3, "os")]


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}
