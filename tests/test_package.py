"""The package's export list."""

import specforms


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from specforms import *", namespace)
    namespace.pop("__builtins__")
    assert len(set(specforms.__all__)) == len(specforms.__all__)
    assert set(namespace) == set(specforms.__all__)
    for name in specforms.__all__:
        assert getattr(specforms, name) is namespace[name]
