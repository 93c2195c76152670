import hypothesis
import pytest

from quiverinv import invariants

hypothesis.settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
)
hypothesis.settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _fresh_invariant_memo(monkeypatch):
    # classes computed in one test, or under a stub there, never reach another
    monkeypatch.setattr(invariants, "_INVARIANT_MEMO", {})
