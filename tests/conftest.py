"""Fixtures shared by the test files."""

import pytest

from galrep.classify import verify_consistency


@pytest.fixture()
def fresh_verdicts():
    """The consistency gate keeps its verdict per (p, n, budgets): a test
    that patches one of its inputs (the closed form, the counter, psi)
    starts with none kept, so it sees its own verdict, and leaves none, so
    no later test reads it."""
    verify_consistency.cache_clear()
    yield
    verify_consistency.cache_clear()
