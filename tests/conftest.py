import hypothesis
import pytest

from quiverinv import charclass, invariants, vertexalg

hypothesis.settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _fresh_module_memos(monkeypatch):
    # classes, bracket plans, Chern atoms and Whitney expansions made in one
    # test, or under a stub there (such as a patched divmod in the Chern
    # atoms), never reach another
    monkeypatch.setattr(invariants, "_INVARIANT_MEMO", {})
    monkeypatch.setattr(vertexalg, "_PLAN_MEMO", {})
    monkeypatch.setattr(charclass, "_EXPANSION_MEMO", {})
    monkeypatch.setattr(charclass, "_ATOM_MEMO", {})
