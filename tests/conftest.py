import pytest

from crosscap3.curve_graph import subdivide
from crosscap3.metric import all_pairs_distances
from crosscap3.tet_tree import generate_ball

_balls = {}
_cgs = {}
_dtables = {}
_ctables = {}


@pytest.fixture(scope="session")
def ball():
    def get(n):
        if n not in _balls:
            _balls[n] = generate_ball(n)
        return _balls[n]

    return get


@pytest.fixture(scope="session")
def cgraph(ball):
    def get(n):
        if n not in _cgs:
            _cgs[n] = subdivide(ball(n))
        return _cgs[n]

    return get


@pytest.fixture(scope="session")
def dtable(ball):
    def get(n):
        if n not in _dtables:
            _dtables[n] = all_pairs_distances(ball(n))
        return _dtables[n]

    return get


@pytest.fixture(scope="session")
def ctable(cgraph):
    def get(n):
        if n not in _ctables:
            _ctables[n] = all_pairs_distances(cgraph(n))
        return _ctables[n]

    return get


def subdivide_oracle(b):
    """The curve graph of ``b`` as a dict of sets over the integer ids.

    Built from ``b.edges()`` alone: id v is one-sided, id n + k the
    two-sided vertex of the k-th edge.  The reference for the CSR build.
    """
    n = b.n_vertices
    adjacency = {v: set() for v in b.vertices()}
    for k, (v, w) in enumerate(b.edges()):
        adjacency[n + k] = {v, w}
        adjacency[v].add(n + k)
        adjacency[w].add(n + k)
    return adjacency


@pytest.fixture(scope="session")
def curve_oracle(ball):
    return lambda n: subdivide_oracle(ball(n))
