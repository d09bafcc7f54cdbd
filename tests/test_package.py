"""The package's public surface."""

import dcemetrics


def test_every_export_resolves():
    # a name left in __all__ after its object is gone breaks `from dcemetrics import *`
    assert [name for name in dcemetrics.__all__ if not hasattr(dcemetrics, name)] == []
    assert len(set(dcemetrics.__all__)) == len(dcemetrics.__all__)
