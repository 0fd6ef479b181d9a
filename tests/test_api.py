"""The package's public names: `neckdown.__all__` is what `import *` binds."""

import neckdown


def test_all_names_exist_once():
    assert len(neckdown.__all__) == len(set(neckdown.__all__))
    missing = [name for name in neckdown.__all__ if not hasattr(neckdown, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from neckdown import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(neckdown.__all__)
