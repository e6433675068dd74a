import pytest

from braidedforms import io


def bundled(name):
    return io.hopf_from_obj(io.load_json(io.bundled_path(name)))


@pytest.fixture(scope="session")
def kz2():
    return bundled("kz2")


@pytest.fixture(scope="session")
def kz3():
    return bundled("kz3")


@pytest.fixture(scope="session")
def kz4():
    return bundled("kz4")


@pytest.fixture(scope="session")
def ks3():
    return bundled("ks3")


@pytest.fixture(scope="session")
def sweedler():
    return bundled("sweedler")


@pytest.fixture(scope="session")
def taft3():
    return bundled("taft3")


@pytest.fixture
def built_sizes(monkeypatch):
    """max(rows, cols) of every matrix built from row maps while the test
    runs, recorded at matrix._sparse, the one internal constructor."""
    from braidedforms import matrix

    sizes = []
    real = matrix._sparse

    def recording(rows, cols, maps):
        sizes.append(max(rows, cols))
        return real(rows, cols, maps)

    monkeypatch.setattr(matrix, "_sparse", recording)
    return sizes
