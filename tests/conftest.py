import pytest

from chainsde import noise


@pytest.fixture
def numpy_backend(monkeypatch):
    """Run the noise on the numpy path, as without a C compiler."""
    monkeypatch.setattr(noise, "_lib", None)

