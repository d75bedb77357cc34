"""The package's public names: each module's __all__, re-exported once."""

import dgtime
from dgtime import analysis, dgsolver, projection, systems, timecore

MODULES = (analysis, dgsolver, projection, systems, timecore)


def test_public_names_are_the_union_of_the_modules_public_names():
    union = {name for module in MODULES for name in module.__all__}
    assert len(dgtime.__all__) == len(set(dgtime.__all__))
    assert set(dgtime.__all__) == union
    for name in dgtime.__all__:
        owners = [module for module in MODULES if name in module.__all__]
        assert all(getattr(dgtime, name) is getattr(module, name) for module in owners), name
