import pytest

from chainsde import integrator, noise


@pytest.fixture
def numpy_backend(monkeypatch):
    """Run the noise on the numpy path, as without a C compiler."""
    monkeypatch.setattr(noise, "_lib", None)


@pytest.fixture
def numpy_rows(monkeypatch):
    """Step two or more paths on numpy rows, as without the compiled kernel."""
    monkeypatch.setattr(integrator, "_kernel", None)
