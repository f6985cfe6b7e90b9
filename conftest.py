import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "tests"))


@pytest.fixture(scope="session")
def chain_integrals():
    """Per-member chain integrals shared across the session's tests: the
    oracles that integrate a family one member at a time reuse them."""
    from oracles import ChainIntegrals

    return ChainIntegrals()
