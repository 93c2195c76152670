"""The package's public surface, and the names the benchmark reaches into.

perfbench/tracer.py wraps functions by (module, attribute) and
perfbench/worker.py calls the package by name, so a rename in the package
silently drops a traced layer or breaks a workload.  These tests resolve
the names with getattr only: tracer.install() patches the package, which
would leak into later tests.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import quiverinv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC_NAMES = [
    "CacheStore", "ChernRing", "CycleError", "DimVector", "Edge", "HClass",
    "InvariantTable", "LieElementError", "LieWord", "PlClass", "Quiver",
    "QuiverMorphism", "SlopeStability", "StructureError", "WeakStability",
    "all_decompositions", "binarize_quiver", "build_invariant_table",
    "canonical_coordinates", "cap", "check_morphism_identity", "check_wallcross",
    "chern_atom", "chern_kclass", "correction_top_class", "decompositions",
    "direct_sum_pushforward", "divided_translation", "dynkin_word",
    "edge_deletion_morphism", "euler_form", "ext_pairing_kexpr", "fraction_str",
    "frame_quiver", "framed_slope", "induced_pl_map", "invariant",
    "invariant_increasing", "is_increasing", "is_translation_image", "kunneth",
    "lie_bracket", "lie_normalize", "merge_pushforward", "monomial_basis",
    "monomial_string", "natural_degree", "pair_invariant_report", "parse_fraction",
    "parse_monomial_string", "pl_class_json", "pl_equal", "pl_is_zero",
    "pullback_stability", "reference_increasing_slope", "s_coeff", "selftest",
    "sign_epsilon", "slope_stability", "state_field", "subvectors", "sym_euler_form",
    "trivial_stability", "u_coeff", "unit_class", "unit_pl", "unit_vector", "vacuum",
    "wallcross_transform", "weight_zero_basis", "zero_class", "zero_pl",
]


def test_public_names_are_the_frozen_list():
    # submodules become package attributes once imported, so they are not names
    public = sorted(
        name for name, value in vars(quiverinv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TRACED; install() is not called
    assert len(tracer.TRACED) >= 31
    missing = []
    for span, (module, attr, _) in tracer.TRACED.items():
        try:
            fn = _resolve(module, attr)
        except AttributeError:
            missing.append(span)
            continue
        assert callable(fn), span
    assert missing == []


def _attribute_chain(node):
    """('qi', 'Quiver', 'from_json') for qi.Quiver.from_json, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if parts and isinstance(node, ast.Name) else None


def test_every_package_name_the_worker_uses_resolves():
    # worker.py binds the package as qi and qi.invariants as inv
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    roots = {"qi": "quiverinv", "inv": "quiverinv.invariants"}
    used = {
        chain for node in ast.walk(tree)
        if (chain := _attribute_chain(node)) and chain[0] in roots
    }
    assert ("inv", "check_wallcross") in used and ("qi", "binarize_quiver") in used
    for root, *path in used:
        assert _resolve(roots[root], ".".join(path)) is not None
