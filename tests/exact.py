"""Exact least span distances and sigma brackets of a stage, over Fractions.

An oracle for the tests that shares no arithmetic with dimlab. Every float
is a dyadic rational and every hyperplane value a rational, so a stage's
points, scaled by the common denominator of their entries, are integer
vectors, and every quantity below is decided exactly:

- the squared distance between the affine spans of A and B is the last
  LDL^T pivot of the Gram matrix of [A's edges from A_0, B's edges from
  B_0, B_0 - A_0] (the squared residual of Gram-Schmidt; a zero pivot is
  a dependent edge and is skipped);
- sigma(S) is the least singular value of the difference matrix D_S, rows
  p_j - p_{s_0} for the other points of S, and sigma(S) >= c exactly when
  D_S D_S^T - c^2 I is positive semidefinite, sigma(S) < c when it is not,
  and sigma(S) <= c when it is not positive definite; the signs of the
  LDL^T pivots decide both.

Only the maximal pairs and subsets are measured, as the filters bound
them: pairs with |A| + |B| = min(2n + 2, s), spans of min(n + 1, s)
vertices against the plane, and subsets of size min(k, d + 1).
"""

from fractions import Fraction
from itertools import combinations
from math import lcm


def ldl_pivots(a):
    """The pivots of a = L D L^T for a symmetric matrix a of ints, in order, as Fractions;
    None when a is indefinite by a zero pivot with a nonzero entry below it.

    Bareiss' fraction-free elimination keeps every entry an integer: its k-th
    pivot entry is a leading principal minor, and the LDL^T pivot is its ratio
    to the previous one. A zero pivot whose column below is zero is passed over:
    its row and column drop out, and the elimination goes on as on a without them.
    """
    a = [list(row) for row in a]
    pivots, prev = [], 1
    for k, row in enumerate(a):
        pivots.append(Fraction(row[k], prev))
        if row[k] == 0:
            if any(a[i][k] for i in range(k + 1, len(a))):
                return None
            continue
        for i in range(k + 1, len(a)):
            a[i][k + 1 :] = [(x * row[k] - a[i][k] * y) // prev
                             for x, y in zip(a[i][k + 1 :], row[k + 1 :])]
        prev = row[k]
    return pivots


def _gram(vectors):
    return [[sum(x * y for x, y in zip(u, v)) for v in vectors] for u in vectors]


def _scaled(rows, extra=()):
    """The rows of numbers times their entries' (and ``extra``'s) common denominator, as ints,
    and that denominator."""
    rows = [[Fraction(x) for x in row] for row in rows]
    scale = lcm(*(x.denominator for row in rows for x in row), *(Fraction(x).denominator
                                                                for x in extra))
    return [[int(x * scale) for x in row] for row in rows], scale


def _minus(u, v):
    return [x - y for x, y in zip(u, v)]


def _squared_residual(edges, r):
    """|r|^2 less its projection on the span of ``edges``: the last LDL^T pivot of the Gram
    matrix of [edges, r], which is positive semidefinite."""
    return ldl_pivots(_gram([*edges, r]))[-1]


def maximal_pairs(s, n):
    """The index-disjoint (A, B), 1 <= |A| <= |B| <= n + 1, with |A| + |B| = min(2n + 2, s)."""
    width = min(2 * n + 2, s)
    for size_a in range(max(1, width - n - 1), width // 2 + 1):
        for a in combinations(range(s), size_a):
            rest = [i for i in range(s) if i not in a]
            for b in combinations(rest, width - size_a):
                if size_a < width - size_a or a < b:
                    yield a, b


def least_eta(vertices, n):
    """The exact least squared distance between the spans of the maximal pairs of at least
    two vertices."""
    p, scale = _scaled(vertices)
    least = min(_squared_residual([_minus(p[i], p[a[0]]) for i in a[1:]]
                                  + [_minus(p[j], p[b[0]]) for j in b[1:]],
                                  _minus(p[b[0]], p[a[0]]))
                for a, b in maximal_pairs(len(p), n))
    return least / scale**2


def least_eta_prime(vertices, coords, values, n):
    """The exact least squared distance from the spans of min(n + 1, s) vertices to the plane
    fixing ``coords`` at the rationals ``values``: only the fixed coordinates contribute."""
    p, scale = _scaled([[row[c] for c in coords] for row in vertices], values)
    target = [int(Fraction(v) * scale) for v in values]
    least = min(_squared_residual([_minus(p[i], p[a[0]]) for i in a[1:]], _minus(target, p[a[0]]))
                for a in combinations(range(len(p)), min(n + 1, len(p))))
    return least / scale**2


def _shifted(gram, c):
    """den * (gram - c I) for c = num / den: an integer matrix of the same definiteness."""
    return [[x * c.denominator - (c.numerator if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(gram)]


def sigma_bracket(points, low, high):
    """Whether low <= the exact least sigma over the maximal subsets of the rows of ``points``
    <= high: every subset has sigma >= low, and some subset has sigma <= high."""
    p, scale = _scaled(points)
    size = min(len(p), len(p[0]) + 1)
    grams = [_gram([_minus(p[i], p[s[0]]) for i in s[1:]])
             for s in combinations(range(len(p)), size)]
    floor, ceiling = (Fraction(v) ** 2 * scale**2 for v in (low, high))
    if low > 0 and not all(
            (pivots := ldl_pivots(_shifted(g, floor))) is not None and min(pivots) >= 0
            for g in grams):
        return False
    return any((pivots := ldl_pivots(_shifted(g, ceiling))) is None or min(pivots) <= 0
               for g in grams)
