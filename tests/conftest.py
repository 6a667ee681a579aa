import numpy as np
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


def adjacency_sets(b):
    """The adjacency of a ball as a list of sets, read off its CSR."""
    return [set(b.neighbors(v).tolist()) for v in b.vertices()]


def coresidence_sets(b):
    """The adjacency of a ball as a list of sets, read off the tetrahedra ``b.tets``.

    Independent of the CSR build, which it is the reference for."""
    adjacency = [set() for _ in b.vertices()]
    for verts in b.tets.values():
        for v in verts:
            adjacency[v].update(set(verts) - {v})
    return adjacency


def support_sets(b):
    """vertex -> the addresses of the tetrahedra holding it, read off ``b.tets``."""
    support = {}
    for addr, verts in b.tets.items():
        for v in verts:
            support.setdefault(v, set()).add(addr)
    return support


def with_edges(b, add=(), remove=()):
    """``b`` with the edges ``add`` joined and ``remove`` cut in its CSR adjacency.

    The tetrahedra stay as they are, so the ball is a fault the adjacency
    checks must find.  The triangles and the edge index built from the old
    CSR are dropped.
    Returns ``b``.
    """
    adjacency = adjacency_sets(b)
    for x, y in add:
        adjacency[x].add(y)
        adjacency[y].add(x)
    for x, y in remove:
        adjacency[x].discard(y)
        adjacency[y].discard(x)
    b.indptr = np.cumsum([0] + [len(a) for a in adjacency])
    b.indices = np.array([w for a in adjacency for w in sorted(a)], dtype=np.int64)
    for name in ("triangles", "_keys"):
        vars(b).pop(name, None)
    return b
