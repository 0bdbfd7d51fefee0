"""The package's public names must all exist, so ``from rpdml import *`` works."""

import rpdml


def test_every_exported_name_resolves():
    missing = [name for name in rpdml.__all__ if not hasattr(rpdml, name)]
    assert not missing, f"rpdml.__all__ names missing from the package: {missing}"
