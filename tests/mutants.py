"""Mutation check: each listed edit to ``src/`` must make the tier-1 suite fail.

Usage: ``python tests/mutants.py`` runs every mutant.

For each mutant, a copy of ``src/`` goes to a temporary directory, one exact
``(file, old, new)`` edit is applied to the copy, and the suite in ``tests/``
runs against it with ``-x``; the mutant is killed when the suite fails. An
unedited copy must pass first. The check fails when a mutant survives, or
when its ``old`` text does not occur exactly once in its file: a refactor that
moves a check must restate its mutant here. Every mutant's ``old`` text is
checked before any suite runs, so a stale list fails at once. Standard
library only; the file name keeps it out of the suite's own collection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file in the package, old text, new text)
MUTANTS = [
    # checks that only fault injection (tests/test_faults.py) makes fire
    ("growth cap gone", "euclid.py",
     'raise InvariantViolationError("per-step coefficient growth bound violated")', "pass"),
    ("coefficient bound gone", "euclid.py",
     'raise InvariantViolationError("intermediate basis exceeds the coefficient bound")', "pass"),
    ("solution-matrix check gone", "variants.py",
     'raise InvariantViolationError("solution matrix disagrees with a fresh elimination")', "pass"),
    # _Run.solution_matrix reads det * X off the split: the pivot-row block's determinant
    ("solution matrix's determinant check gone", "euclid.py",
     "        self.eliminate(())  # the pivot-row block alone", "        ()  # the pivot-row block alone"),
    ("fractional-exit check gone", "variants.py",
     'raise InvariantViolationError("pool vector left fractional at exit")', "pass"),
    ("unimodular-end check gone", "applications.py",
     'raise InvariantViolationError("exchange run did not end on a unimodular basis")', "pass"),
    # determinant mode reads its sign off the run: one elimination of the end basis checks it
    ("determinant mode's end-basis check gone", "applications.py",
     "    run.eliminate(())  # the end basis", "    ()  # the end basis"),
    ("coordinate drift check gone", "applications.py",
     'raise InvariantViolationError("coordinate tracking drifted from the basis")', "pass"),
    ("transform check gone", "applications.py",
     'raise InvariantViolationError("transform does not reproduce the basis")', "pass"),
    ("closing residual check gone", "applications.py",
     'raise InvariantViolationError("closing solve does not reproduce the right-hand side")', "pass"),
    ("per-step FIFO cross-check gone", "applications.py",
     'raise InvariantViolationError("tracked FIFO solve disagrees with a fresh elimination")', "pass"),
    # determinant mode's value against the split, and exchange_step's denominators
    ("determinant equality check gone", "applications.py",
     'raise InvariantViolationError("accumulated residues disagree with the determinant")', "pass"),
    ("exchange_step denominator check gone", "euclid.py",
     'raise InvariantViolationError("solution denominators do not divide the determinant")', "pass"),
    # checks the ordinary tests already reach
    ("elimination determinant check gone", "euclid.py",
     'raise InvariantViolationError("elimination disagrees with the tracked determinant")', "pass"),
    ("row-against-column cross-check gone", "euclid.py",
     'raise InvariantViolationError("row solve disagrees with the full solve")', "pass"),
    # _Run.check, the engine's one off-pivot check: every solver calls it
    ("engine's off-pivot check gone", "euclid.py",
     "                _check_span(self.off_rows, vec, num, self.det)\n", "                pass\n"),
    ("vector entry check gone", "exact.py",
     "    _check_entries(vec)\n    mu = lcm_denominators(vec)", "    mu = lcm_denominators(vec)"),
    # the same line in two step functions, each told apart by the line after it
    ("mod_prime's vec check gone", "euclid.py",
     '    _check_entries(vec)\n    _check_index(i, len(x), "pivot")', '    _check_index(i, len(x), "pivot")'),
    ("check_off_pivot_rows' vec check gone", "euclid.py",
     "    _check_entries(vec)\n    mu, scaled = ", "    mu, scaled = "),
    # solve_in_span checks its vec and the rows off the pivot rows through check_off_pivot_rows
    ("solve_in_span's off-pivot check gone", "euclid.py",
     "    check_off_pivot_rows(basis, pivot_rows, vec, x)\n", "    pass\n"),
    # the one off-pivot rule: _Run.check skips when the pivot rows cover every
    # row; a run without columns covers none, though it keeps no rows to check
    ("pivot rows said to cover every row", "euclid.py",
     "self.covered = len(self.pivot_rows) == self.dim", "self.covered = True"),
    # basis_transform's input checks: rows, columns, integral entries
    ("basis_transform row check gone", "euclid.py",
     "if basis.rows != a_mat.rows or basis.cols != rank:", "if basis.cols != rank:"),
    ("basis_transform column check gone", "euclid.py",
     "if basis.rows != a_mat.rows or basis.cols != rank:", "if basis.rows != a_mat.rows:"),
    ("basis_transform entry check gone", "euclid.py",
     "run.solve(basis.to_int().columns)", "run.solve(basis.columns)"),
    # the product form every cached solver keeps: the fold into g, the fold
    # before an exchange on another row, a FIFO solve's fold before it reads
    # g, the O(n) update of p and the O(n) column read
    ("product-form fold skipped", "euclid.py",
     "        if self.p is not None:\n            self.g[:] = ", "        if False:\n            self.g[:] = "),
    ("row-change fold gone", "euclid.py",
     "            self.fold()\n", "            pass\n"),
    ("FIFO solve reads the form unfolded", "euclid.py",
     "(form.g if pending else form.fold())", "form.g"),
    ("product-form column update sign flipped", "euclid.py",
     "(d0 * wk + pk * wi) // d", "(d0 * wk - pk * wi) // d"),
    ("product-form combined column sign flipped", "euclid.py",
     "(det * e - pk * ci) // d0", "(det * e + pk * ci) // d0"),
    # the pool's solution matrix in FIFO order: the fold kernel, the entering
    # column (the old B_i) set to d0 * e_i before the fold, a discarded slot
    # leaving the tracker, the check of its solve of a vector off the pool,
    # and the shape rule that picks it
    ("exchange update kernel sign flipped", "exact.py",
     "(wi * e - wk * h) // d", "(wi * e + wk * h) // d"),
    ("entering column not reset to d0 * e_i", "euclid.py",
     "p or [d0 * (k == i) for k in range(len(w))]", "p or [r[j] for r in self.g]"),
    ("discarded slot left in the tracker", "euclid.py",
     "            del r[j]\n", "            pass\n"),
    ("solution matrix solves a foreign vector unchecked", "euclid.py",
     "(lambda vec: self.solve((vec,))[0])", "(lambda vec: self.eliminate((vec,))[0])"),
    ("shape rule inverted", "euclid.py",
     "if len(self.pool) <= len(self.pivot_rows):", "if len(self.pool) > len(self.pivot_rows):"),
    ("carried row written in place", "euclid.py",
     "z = list(row(i))", "z = row(i)"),
    ("exchange hooks not run", "euclid.py",
     "            hook(i, j, w, d)\n", "            pass\n"),
    ("FIFO stop at |det| == 1 gone", "euclid.py",
     "while pool and self.det not in (1, -1):", "while pool:"),
    ("row-major stop at |det| == 1 gone", "euclid.py",
     "            if self.det in (1, -1):  # every solution is integral: no exchange can follow\n                break\n", ""),
    # Diophantine mode's sparse carry: a pooled column's coordinate, the
    # entering column's own coordinate on its new row, a leaving column's coordinates
    ("pooled column carries no coordinate", "euclid.py",
     "col + (j,)", "col + (None,)"),
    ("entering coordinate dropped as its row is made", "euclid.py",
     "                vec.append(1)\n", "                vec.append(0)\n"),
    ("former basis column leaves without coordinates", "euclid.py",
     "            old += (None,)\n", "            old = (*old[: self.dim], None)\n"),
    # inverted conditions
    ("elimination check inverted", "euclid.py",
     "if d != self.det:", "if d == self.det:"),
    ("row-against-column check inverted", "euclid.py",
     "if num[i] != z[j]:", "if num[i] == z[j]:"),
    ("integral pivot check inverted", "euclid.py",
     "    if not num[i] % d:  # the one integral-pivot test", "    if num[i] % d:  # the one integral-pivot test"),
    ("exchange_step denominator check inverted", "euclid.py",
     "if not state.det or state.det % mu:", "if not state.det or not state.det % mu:"),
    ("span check inverted", "euclid.py",
     "if sum(map(mul, row, num)) != d * vec[t]:", "if sum(map(mul, row, num)) == d * vec[t]:"),
    ("pivot ties to the last index", "euclid.py",
     "if dist < best_dist:", "if dist <= best_dist:"),
    ("singular test inverted", "applications.py",
     "if len(run.pivot_rows) < n:", "if len(run.pivot_rows) >= n:"),
    ("unimodular-end check inverted", "applications.py",
     "if abs(run.det) != 1:", "if abs(run.det) == 1:"),
    ("transform check inverted", "applications.py",
     "if check_invariants and (a_mat @ transform) != run.basis:", "if check_invariants and (a_mat @ transform) == run.basis:"),
    # the lazy column split: a frontier replay, the frontier check before the
    # pivot search, and the sign of a row moved up past several
    ("replay skips the last step", "exact.py",
     "    for k, j in enumerate(cols):\n", "    for k, j in enumerate(cols[:-1]):\n"),
    ("replayed block starts a column past the frontier", "exact.py",
     "_replay(a, cols, j, frontier)", "_replay(a, cols, j + 1, frontier)"),
    ("pivot search reads the frontier column stale", "exact.py",
     "        if j == frontier:\n", "        if j == frontier + 1:\n"),
    ("a row moved up counted as one transposition", "exact.py",
     "passed += r - k", "passed += 1"),
    # the elimination's pairs of pivots: the test that row k + 1 holds the
    # next pivot, and the frontier that a pair must stay before
    ("row k + 1 fast path inverted", "exact.py",
     "a[k + 1][c] * a[k][j] != a[k + 1][j] * a[k][c]", "a[k + 1][c] * a[k][j] == a[k + 1][j] * a[k][c]"),
    ("pair takes its second pivot at the frontier", "exact.py",
     "c < frontier and c < width", "c <= frontier and c < width"),
    ("back-substitution sign flipped", "exact.py",
     "acc = [x - e * y for x, y in zip(acc, out[s])]", "acc = [x + e * y for x, y in zip(acc, out[s])]"),
    ("fractional-exit check inverted", "variants.py",
     "if check_invariants and any(e % run.det", "if check_invariants and not any(e % run.det"),
]


def _suite_passes(src: Path, workdir: Path) -> bool:
    """Run the tier-1 suite with ``-x`` against the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    # run from workdir, so Hypothesis keeps the mutants' failing examples there
    done = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def _copy(workdir: Path) -> Path:
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    failed = 0
    for name, file, old, _ in MUTANTS:
        count = (ROOT / "src" / "lattice_euclid" / file).read_text().count(old)
        if count != 1:
            print(f"STALE     {name}: the old text occurs {count} times in {file}")
            failed += 1
    if failed:
        print(f"{failed} of {len(MUTANTS)} mutants stale; no suite was run")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        workdir = Path(tmp)
        if not _suite_passes(_copy(workdir), workdir):
            print("the unedited copy fails the suite; no mutant can be judged")
            return 1
        for name, file, old, new in MUTANTS:
            src = _copy(workdir)
            path = src / "lattice_euclid" / file
            path.write_text(path.read_text().replace(old, new))
            start = time.monotonic()
            survived = _suite_passes(src, workdir)
            outcome = "SURVIVED" if survived else "killed"
            print(f"{outcome:<9} {name} ({file}, {time.monotonic() - start:.1f} s)", flush=True)
            failed += survived
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
