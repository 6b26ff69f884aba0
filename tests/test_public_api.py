"""The package's public surface: ``from lomlab import *`` imports every
name in ``__all__``, so a name deleted from a module must leave it too."""

import lomlab


def test_every_exported_name_resolves_once():
    assert len(lomlab.__all__) == len(set(lomlab.__all__))
    namespace = {}
    exec("from lomlab import *", namespace)  # AttributeError on a stale name
    assert set(lomlab.__all__) <= set(namespace)
