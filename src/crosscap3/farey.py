"""The Farey complex on integer pairs, as the link check of ``tet_tree`` runs it.

A slope p/q is its canonical primitive pair: q > 0, or (1, 0) for infinity.
Two slopes x = (p, q) and y = (r, s) span an edge exactly when |ps - qr| = 1,
and the two triangles on that edge have third vertices x + y and x - y.
Labelling a link crosses from one tetrahedron to the next, keeping two
labels and forcing the third (``_cross``); a labelling from a second base
must be the Mobius image of the first (``_mobius_flags``).  Both run on N
rows at once in int64, on labels below ``tet_tree.LABEL_LIMIT``.  This
module imports nothing from the package; its reference, one slope at a
time, is in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

# For j != c, the two slots other than j and c: the link edge kept when the
# link of the vertex at slot j crosses slot c.
_KEPT = np.array([[[k for k in range(4) if k not in (j, c)][:2] for c in range(4)] for j in range(4)])


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """The canonical pair of every row of an (N x 2) int64 array, in place: q > 0, or (1, 0)."""
    pairs[(pairs[:, 1] < 0) | ((pairs[:, 1] == 0) & (pairs[:, 0] < 0))] *= -1
    return pairs


def _cross(src: np.ndarray, j: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The crossing rule of ``_link_labels`` (``tests/oracles.py``) for N links at once: cross slot c
    in the link at slot j.

    ``src`` (N x 4 x 2) holds the labels of the other slots before the
    crossing and is updated in place: the kept pair x, y keeps its labels
    and slot c gets whichever of x + y and x - y its old label is not.
    Returns that new label, in int64, and whether |ps - qr| = 1 and the old
    label was x + y or x - y.
    """
    n = np.arange(len(src))
    x, y, d = (src[n, k].astype(np.int64) for k in (_KEPT[j, c, 0], _KEPT[j, c, 1], c))
    plus, minus = x + y, _canonical(x - y)
    is_plus, is_minus = (d == plus).all(axis=1), (d == minus).all(axis=1)
    ok = (np.abs(x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]) == 1) & (is_plus | is_minus)
    new = np.where(is_plus[:, None], minus, plus)
    src[n, c] = new
    return new, ok


def _mobius_flags(labels: np.ndarray, relabels: np.ndarray, base: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Where the relabels of a link are not the Mobius image of its labels, up to sign: a (T x 3)
    mask over the slots ``others`` of each row (the three slots other than the link's own), in order.

    The matrix sends the first labels a, b, c of the second base, row
    ``base[t]``, to (0/1, 1/0, 1/1): ``triangle_matrix``, then
    ``mat_inverse`` (both in ``tests/oracles.py``), on every row at once.
    Every slot of a row is marked when a, b, c are not an ordered Farey
    triangle.
    """
    a, b, c = (labels[base, k].astype(np.int64) for k in others)
    is_plus, is_minus = (c == _canonical(a + b)).all(axis=1), (c == _canonical(a - b)).all(axis=1)
    sign = np.where(is_plus, 1, -1)
    det = sign * (b[:, 0] * a[:, 1] - a[:, 0] * b[:, 1])
    p, q, r, s = labels[:, others, 0], labels[:, others, 1], relabels[:, others, 0], relabels[:, others, 1]
    # The inverse is det * ((sign a_q, -sign a_p), (-b_q, b_p)).
    image_p = (det * sign)[:, None] * (a[:, 1:] * p - a[:, :1] * q)
    image_q = det[:, None] * (b[:, :1] * q - b[:, 1:] * p)
    same = ((r == image_p) & (s == image_q)) | ((r == -image_p) & (s == -image_q))
    return (~(is_plus | is_minus) | (np.abs(det) != 1))[:, None] | ~same
