"""The package namespace: every exported name resolves, none twice."""

from collections import Counter

import galrep


def test_every_export_resolves_once():
    assert [name for name, count in Counter(galrep.__all__).items() if count > 1] == []
    assert [name for name in galrep.__all__ if not hasattr(galrep, name)] == []
