"""Independent reference computations used as test oracles.

Deliberately naive implementations (Laplace expansion, adjugate formula,
an eager Bareiss elimination, an integer Gauss-Jordan elimination, and
Gaussian elimination, the exchange update and the whole exchange run in
Fraction arithmetic) that share no code with the package, plus seeded
instance helpers. Only ``Matrix``, the package's input and output type, is
imported.
"""

import math
from collections import namedtuple
from fractions import Fraction

from lattice_euclid import Matrix


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


def fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions, a row swap flipping the sign."""
    a, det = [list(map(Fraction, r)) for r in rows], Fraction(1)
    for c in range(len(a)):
        p = next((t for t in range(c, len(a)) if a[t][c]), None)
        if p is None:
            return 0
        a[c], a[p], det = a[p], a[c], det * a[p][c] * (1 if p == c else -1)
        for t in range(c + 1, len(a)):
            f = a[t][c] / a[c][c]
            a[t] = [e - f * g for e, g in zip(a[t], a[c])]
    return int(det)


def gauss_jordan(cols, vecs):
    """Per ``v`` in ``vecs``, ``x`` with ``sum(x[k] * cols[k]) == v`` as Fractions, or None off the span of ``cols``.

    ``cols`` independent, all entries ints. One Gauss-Jordan elimination checks every row; each
    row operation cross-multiplies, then divides the row by the gcd of its entries.
    """
    r = len(cols)
    rows = [list(row) for row in zip(*cols, *vecs)]
    for c in range(r):
        p = next(t for t in range(c, len(rows)) if rows[t][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for t, row in enumerate(rows):
            if t != c and (f := row[c]):
                row = [e * pivot[c] - f * g for e, g in zip(row, pivot)]
                content = math.gcd(*row) or 1
                rows[t] = [e // content for e in row]
    return [None if any(row[r + k] for row in rows[r:]) else [Fraction(row[r + k], row[i]) for i, row in enumerate(rows[:r])] for k in range(len(vecs))]


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


ReferenceRun = namedtuple("ReferenceRun", "basis det0 discards trace entered")


def reference_run(a, order, coordinates=False):
    """The exchange loop on the columns of ``a`` as the paper states it, in Fractions.

    The basis starts as :func:`fraction_echelon`'s columns, the pool as the
    other nonzero ones, and every solve is from scratch (:func:`gauss_jordan`).
    An exchange on ``x_i`` replaces ``B_i`` with the vector minus ``B`` times
    ``x`` floored, ``x_i`` rounded to ``floor(x_i + 1/2)``; the old ``B_i``
    takes the vector's place. ``"fifo"`` drops the front of the queue if
    integral, else pivots on its coordinate nearest an integer (ties to the
    smallest index) and sends the old ``B_i`` to the back; ``"row_major"``
    pivots on the first fractional entry of the topmost row of the pool's
    solution matrix. Both stop once ``|det| == 1``. With ``coordinates``
    each vector carries its ``m`` coordinates in the columns of ``a``.
    Returns the final ``basis`` columns, ``det0``, the ``discards`` as the
    drivers count them, the ``trace`` as ``(step, pivot_row, column, factor,
    det_after)``, and per exchange the input column that ``entered`` the
    basis, or None.
    """
    n, m = a.rows, a.cols
    cols, pivot_rows = fraction_echelon(a)
    vectors = [list(a.column(j)) + [int(k == j) for k in range(m) if coordinates] for j in range(m)]
    basis = [vectors[j] for j in cols]
    pool = [(vectors[j], j) for j in range(m) if j not in cols and any(a.column(j))]
    discards = m - len(cols) - len(pool)
    det = det0 = fraction_det([[b[t] for b in basis] for t in pivot_rows])
    trace, entered = [], []

    def solve(vecs):
        xs = gauss_jordan([b[:n] for b in basis], [v[:n] for v in vecs])
        assert None not in xs, "a pool vector left the span of the basis"
        return xs

    def exchange(slot, x, i, column):
        nonlocal det
        rounded = [round_half_up(q) if k == i else math.floor(q) for k, q in enumerate(x)]
        factor = x[i] - rounded[i]
        det = int(det * factor)
        trace.append((len(trace), i, column, factor, det))
        vec, origin = pool[slot]
        pool[slot] = (basis[i], None)
        basis[i] = [e - sum(r * b[t] for r, b in zip(rounded, basis)) for t, e in enumerate(vec)]
        entered.append(origin)

    if order == "fifo":
        while pool and abs(det) != 1:
            [x] = solve([pool[0][0]])
            i = pivot_argmin_fraction(x)
            if i is not None:
                exchange(0, x, i, 0)
                pool.append(pool[0])
            del pool[0]
            discards += i is None
        discards += len(pool)
    else:
        assert order == "row_major", order
        while abs(det) != 1:
            xs = solve([vec for vec, _ in pool])
            hit = next(((x, i, j) for i in range(len(cols)) for j, x in enumerate(xs) if x[i].denominator != 1), None)
            if hit is None:
                break
            exchange(hit[2], *hit)
    return ReferenceRun(basis, det0, discards, trace, entered)


def random_int_matrix(rng, n, m, bound):
    return Matrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    )


def random_nonsingular(rng, n, bound):
    while True:
        mat = random_int_matrix(rng, n, n, bound)
        if fraction_det(mat.to_rows()) != 0:
            return mat


def random_system(rng):
    """``(A, rhs)``, ``A`` at most 4x7 with a dependent row or zero columns in a third of cases each, ``rhs`` in its image or free."""
    n, m = rng.randint(1, 4), rng.randint(1, 7)
    a = random_int_matrix(rng, n, m, 9)
    kind = rng.randrange(3)
    if kind == 1 and n > 1:  # the last row a combination of the others
        rows = a.to_rows()
        a = Matrix.from_rows(rows[:-1] + [[2 * x - y for x, y in zip(rows[0], rows[-2])]])
    elif kind == 2:
        zero = set(rng.sample(range(m), rng.randint(1, m)))
        a = Matrix.from_rows([[0 if j in zero else e for j, e in enumerate(r)] for r in a.to_rows()])
    if rng.randrange(2):
        rhs = a.mat_vec([rng.randint(-4, 4) for _ in range(m)])
    else:
        rhs = tuple(rng.randint(-9, 9) for _ in range(n))
    return a, rhs
