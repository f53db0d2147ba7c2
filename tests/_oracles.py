"""Independent reference computations used as test oracles.

Deliberately naive implementations (Laplace expansion, adjugate formula,
an eager Bareiss elimination, the exchange update in Fraction arithmetic)
that share no code with the package, plus seeded instance helpers.
"""

import math
from fractions import Fraction

from lattice_euclid import Matrix, bareiss_det


def cofactor_det(rows):
    """Determinant by recursive Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for c, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        term = head * cofactor_det(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


def adjugate_inverse(rows):
    """Inverse via the adjugate formula: inv[i][j] = cof(j, i) / det."""
    n = len(rows)
    det = cofactor_det(rows)
    assert det != 0
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            sign = -1 if (i + j) % 2 else 1
            out_row.append(Fraction(sign * cofactor_det(minor), det))
        out.append(out_row)
    return out


def is_integral(mat):
    """Whether every entry of ``mat`` is an integer (an int or a Fraction over 1)."""
    return all(Fraction(e).denominator == 1 for col in mat.columns for e in col)


def fraction_echelon(a_mat):
    """Greedy independent columns and their pivot rows, by rational elimination.

    Each column is reduced against the accepted ones with Fraction
    arithmetic; a column that keeps a nonzero entry is accepted, and its
    first nonzero entry names its pivot row. Returns ``(columns, sorted
    pivot rows)``.
    """
    echelon = []
    col_idx = []
    pivot_rows = []
    for j in range(a_mat.cols):
        v = [Fraction(e) for e in a_mat.column(j)]
        for p, u in echelon:
            if v[p]:
                f = v[p] / u[p]
                v = [a - f * b for a, b in zip(v, u)]
        p = next((t for t in range(a_mat.rows) if v[t]), None)
        if p is not None:
            echelon.append((p, v))
            col_idx.append(j)
            pivot_rows.append(p)
    return col_idx, sorted(pivot_rows)


def right_looking_bareiss(rows, width):
    """Eager fraction-free elimination of the first ``width`` columns, on copies of ``rows``.

    Column ``j`` pivots on the first row, in input order, not yet a pivot
    row and nonzero in ``j``; each step rewrites every later column of the
    rows not yet pivoted as ``(e * pivot - head * p) // prev``. Returns the
    pivot rows (input indices, in pivot order), the pivot columns, the
    determinant of their minor with its rows in increasing order (the last
    pivot, signed by the parity of the pivot order), and the rows: the pivot
    rows in pivot order, then the others in input order.
    """
    state = [list(r) for r in rows]
    order, cols, prev = [], [], 1
    for j in range(width):
        if len(order) == len(state):
            break
        p = next((t for t in range(len(state)) if t not in order and state[t][j]), None)
        if p is None:
            continue
        pivot = state[p][j]
        for t in range(len(state)):
            if t != p and t not in order:
                head = state[t][j]
                for c in range(j + 1, len(state[t])):
                    state[t][c] = (state[t][c] * pivot - head * state[p][c]) // prev
        order.append(p)
        cols.append(j)
        prev = pivot
    inversions = sum(a > b for s, a in enumerate(order) for b in order[s + 1 :])
    rest = [t for t in range(len(state)) if t not in order]
    return order, cols, -prev if inversions % 2 else prev, [state[t] for t in order + rest]


def round_half_up(q):
    """Nearest integer to ``q``, halves rounded toward +infinity: ``floor(q + 1/2)``."""
    return math.floor(q + Fraction(1, 2))


def pivot_argmin_fraction(x):
    """Fractional coordinate nearest an integer, by Fraction arithmetic.

    The distance of ``q`` is ``abs(q - floor(q + 1/2))``; ties go to the
    smallest index, and an integral ``x`` gives None.
    """
    best, best_dist = None, None
    for j, q in enumerate(x):
        if q == math.floor(q):
            continue
        dist = abs(q - round_half_up(q))
        if best_dist is None or dist < best_dist:
            best, best_dist = j, dist
    return best


def exchange_update_fraction(mat, i, w):
    """``F**-1 @ mat`` in Fraction arithmetic, ``F`` the identity with column ``i`` set to ``w``.

    Row ``i`` is divided by ``w[i] != 0``, then ``w[k]`` times it is
    subtracted from every other row ``k``.
    """
    inv = 1 / Fraction(w[i])
    out = []
    for col in mat.columns:
        head = col[i] * inv
        new_col = [e - wk * head for e, wk in zip(col, w)]
        new_col[i] = head
        out.append(tuple(new_col))
    return Matrix(tuple(out), rows=mat.rows)


def random_int_matrix(rng, n, m, bound):
    return Matrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    )


def random_nonsingular(rng, n, bound):
    while True:
        mat = random_int_matrix(rng, n, n, bound)
        if bareiss_det(mat) != 0:
            return mat
