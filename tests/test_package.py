"""The package's public names."""

import fracreact


def test_all_names_resolve_once():
    names = fracreact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fracreact, name), name
