"""Mutation check: each hand-written mutant must make the test suite fail.

Each row of ``MUTANTS`` names a file, an exact source fragment that occurs
once in it, its replacement and the reason the replacement is wrong. For
each row the tree is copied to a fresh temporary directory, the fragment is
replaced there, and ``python -m pytest -x -q tests perfbench/tests`` runs in
the copy. The mutant is *killed* when the suite fails, *survived* when it
passes, and *not found* when the fragment does not occur exactly once. The
unmutated copy runs first and must pass. A survivor means a test is missing:
pin the behaviour with a test, or, if the mutant changes only speed, drop it
from the table and record why it is equivalent.

Run it from the repository root (the file's name keeps pytest from
collecting it)::

    python tests/mutants.py               # every mutant
    python tests/mutants.py eliminate     # the mutants whose name contains "eliminate"

It prints one line per mutant and exits 1 if any mutant survived or was not
found. One copy and one suite run at a time; the whole table takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out", ".benchmarks", "BENCH_*.json"
)
SUITE = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests", "perfbench/tests"]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    fragment: str
    replacement: str
    reason: str


LINALG = "src/qgap/linalg.py"

MUTANTS = [
    # The integer kernels and views: sign flips and dropped terms.
    Mutant(
        "eliminate_real_sign", LINALG,
        "nr.append(pr * a - pi * b - fr * c + fi * d)",
        "nr.append(pr * a - pi * b - fr * c - fi * d)",
        "the real part of p*x - f*y with the sign of Im(f)Im(y) flipped",
    ),
    Mutant(
        "eliminate_no_content_removal", LINALG,
        "            if g > 1:\n                for j in range(len(nr)):",
        "            if False:\n                for j in range(len(nr)):",
        "rewritten rows keep their integer content; same answers, larger integers",
    ),
    Mutant(
        "reduced_imag_sign", LINALG,
        "xi = [b * p - a * q for a, b in zip(yr, yi)]",
        "xi = [b * p + a * q for a, b in zip(yr, yi)]",
        "multiplies the row by p instead of conj(p) before dividing by |p|^2",
    ),
    Mutant(
        "reduced_seeds_the_unreduced_form", LINALG,
        'v.__dict__["_integer_form"] = vr, vi',
        'v.__dict__["_integer_form"] = tuple(xr), tuple(xi)',
        "the seeded integer form keeps the common factor G, unlike the form first use computes",
    ),
    Mutant(
        "null_rows_imag_sign", LINALG,
        "xi[p] = vi[f] * k",
        "xi[p] = -vi[f] * k",
        "the null row uses -V[f] instead of -conj(V[f])",
    ),
    Mutant(
        "null_rows_unscaled", LINALG,
        "xr[p] = -vr[f] * k",
        "xr[p] = -vr[f]",
        "the real pivot entries lose the factor L / s_i",
    ),
    Mutant(
        "projection_gram_sign", LINALG,
        "gi += b * c - a * d",
        "gi += b * c + a * d",
        "the Gram matrix's imaginary parts with one term's sign flipped",
    ),
    Mutant(
        "projection_complement_imag", LINALG,
        "pr, pi = (scale if s == t else 0) - pr, -pi",
        "pr, pi = (scale if s == t else 0) - pr, pi",
        "I - P keeps P's imaginary parts instead of negating them",
    ),
    Mutant(
        "idempotent_real_sign", LINALG,
        "sr[j] += a * c - b * d",
        "sr[j] += a * c + b * d",
        "the real part of A A with the sign of Im * Im flipped",
    ),
    Mutant(
        "kills_or_fixes_imag_sign", LINALG,
        "si += a * d + b * c",
        "si += a * d - b * c",
        "the imaginary part of A V with one term's sign flipped",
    ),
    Mutant(
        "kills_or_fixes_unscaled", LINALG,
        "if fixes and (sr != scale * xr or si != scale * xi):",
        "if fixes and (sr != xr or si != xi):",
        "compares A V with V instead of L V",
    ),
    Mutant(
        "trace_imag_term_sign", LINALG,
        "t = x._a * y._a + x._b * y._b",
        "t = x._a * y._a - x._b * y._b",
        "Re(P[i,k] conj(Q[i,k])) with the imaginary product's sign flipped",
    ),
    Mutant(
        "trace_denominators_dropped", LINALG,
        "num = num * (d // g) + t * (den // g)",
        "num = num + t",
        "sums the terms' numerators over no common denominator",
    ),
    Mutant(
        "integer_pattern_imag_unscaled", LINALG,
        "row.append((j, x._a * k, x._b * k))",
        "row.append((j, x._a * k, x._b))",
        "the pattern's imaginary parts lose the factor L / d",
    ),
    # The matrix operators and the Hermitian test.
    Mutant(
        "is_hermitian_ignores_conjugation", LINALG,
        "x._b != -y._b",
        "x._b != y._b",
        "compares an entry with its mirror image, not with the mirror's conjugate",
    ),
    Mutant(
        "matmul_keeps_the_last_term", LINALG,
        "acc[j] = x * y if s is None else s + x * y",
        "acc[j] = x * y",
        "each product entry keeps only its last term",
    ),
    Mutant(
        "matmul_fills_an_empty_entry_with_one", LINALG,
        "entries.extend(ZERO if s is None else s for s in acc)",
        "entries.extend(ONE if s is None else s for s in acc)",
        "a product entry with no nonzero term is 1 instead of 0",
    ),
    Mutant(
        "nonzeros_keeps_zero_entries", LINALG,
        "for j, x in enumerate(self.entries[i * c : (i + 1) * c]) if not x.is_zero)",
        "for j, x in enumerate(self.entries[i * c : (i + 1) * c]))",
        "products multiply and add the zero entries too; same answers, more scalar work",
    ),
    Mutant(
        "apply_without_its_shape_check", LINALG,
        "        if self.cols != state.dim:\n            raise ShapeError(f\"cannot apply",
        "        if False:\n            raise ShapeError(f\"cannot apply",
        "a state of the wrong dimension is refused by @, with @'s message",
    ),
    Mutant(
        "matrix_init_without_coercion", LINALG,
        "entries = tuple([coerce_scalar(v) for v in entries])",
        "entries = tuple(entries)",
        "a matrix built from ints or text stores them unconverted and unchecked",
    ),
    Mutant(
        "add_drops_overlapping_terms", LINALG,
        "(a + b if b._a or b._b else a) if a._a or a._b else b",
        "a if a._a or a._b else b",
        "where both entries are nonzero the sum keeps only the left one",
    ),
    # Domain checks, boundaries and guards.
    Mutant(
        "product_without_its_check", "src/qgap/projectors.py",
        "        m = p.matrix @ q.matrix\n        if not m.is_hermitian():",
        "        m = p.matrix @ q.matrix\n        if False:",
        "conjunction of non-commuting projectors is no longer refused",
    ),
    Mutant(
        "sum_without_its_check", "src/qgap/projectors.py",
        "if not _trace_of_product_is_zero(p.matrix, q.matrix):",
        "if False:",
        "exclusive-or of non-orthogonal projectors is no longer refused",
    ),
    Mutant(
        "onto_boundary_off_by_one", "src/qgap/projectors.py",
        "elif 2 * k <= n:",
        "elif 2 * k < n:",
        "a range of exactly half the dimension is solved on its complement's rows",
    ),
    Mutant(
        "meet_keeps_a_pivot_row", "src/qgap/lattice.py",
        "[r[n:] for r in re[k:]], [r[n:] for r in im[k:]]",
        "[r[n:] for r in re[k - 1:]], [r[n:] for r in im[k - 1:]]",
        "the last pivot row's right half joins the intersection's spanning rows",
    ),
    Mutant(
        "leq_ranks_self_alone", "src/qgap/lattice.py",
        "_rank(*_integer_forms(other.basis + self.basis), self.ambient_dim) == other.dim",
        "_rank(*_integer_forms(self.basis), self.ambient_dim) == other.dim",
        "the order compares dimensions only: self's rank against other's dimension",
    ),
    Mutant(
        "population_without_its_check", "src/qgap/propositions.py",
        "if len(t) != len(labels) or not all(type(x) is int and x in (0, 1) for x in t):",
        "if False:",
        "a population takes tuples of any length holding any values",
    ),
    Mutant(
        "classical_xor_as_or", "src/qgap/propositions.py",
        "x + y - 2 * x * y",
        "x + y - x * y",
        "bivalent exclusive-or evaluated as inclusive or",
    ),
    Mutant(
        "sub_negates_only_the_real_part", "src/qgap/scalars.py",
        "return _add(self, _make(-o._a, -o._b, o._d))",
        "return _add(self, _make(-o._a, o._b, o._d))",
        "x - y adds conj(-y) instead of -y",
    ),
    Mutant(
        "add_keeps_the_unreduced_denominator", "src/qgap/scalars.py",
        "o._b * d1, d1 * d2\n        g = gcd(a, b, d)\n        return _make(a // g, b // g, d // g)",
        "o._b * d1, d1 * d2\n        g = gcd(a, b, d)\n        return _make(a // g, b // g, d)",
        "a sum divides its numerators by the gcd but keeps the product of the denominators",
    ),
    Mutant(
        "scalar_eq_ignores_denominator", "src/qgap/scalars.py",
        "return self._a == other._a and self._b == other._b and self._d == other._d",
        "return self._a == other._a and self._b == other._b",
        "a/d equals a/d' for every d'",
    ),
    # The per-axis states of scenario.
    Mutant(
        "verify_without_its_impossible_outcome_check", "src/qgap/scenario.py",
        "    if all(e.is_zero for e in image):\n        raise ImpossibleOutcomeError",
        "    if False:\n        raise ImpossibleOutcomeError",
        "verifying an outcome the state contradicts returns the zero vector instead of raising",
    ),
    Mutant(
        "post_state_verifies_down", "src/qgap/scenario.py",
        "post = verify(prepared, Atom(Particle.A, axis, Direction.UP))",
        "post = verify(prepared, Atom(Particle.A, axis, Direction.DOWN))",
        "the shared post-state is the singlet after verifying spin A down",
    ),
    Mutant(
        "axis_states_read_the_z_axis", "src/qgap/scenario.py",
        "Subspace.column_space(_eigenprojector(axis, d))",
        "Subspace.column_space(_eigenprojector(Axis.Z, d))",
        "every axis's spin basis, singlet and post-state are the z-axis ones",
    ),
    Mutant(
        "axis_states_not_cached", "src/qgap/scenario.py",
        "@lru_cache(maxsize=None)\ndef _axis_states(",
        "@lru_cache(maxsize=0)\ndef _axis_states(",
        "every run builds the spin basis, the singlet and the post-state again; same answers, slower",
    ),
    Mutant(
        "eigenprojector_sign_swapped", "src/qgap/scenario.py",
        "sigma if direction is Direction.UP else sigma.scale(-1)",
        "sigma.scale(-1) if direction is Direction.UP else sigma",
        "each atom's projector and eigenvector is the other direction's",
    ),
    # The fixture audit's MATCH decisions and the span reader it shares with the CLI.
    Mutant(
        "audit_ray_checks_only_the_length", "src/qgap/fixtures.py",
        "same = printed.dim == ray.ambient_dim and ray.contains(printed)",
        "same = printed.dim == ray.ambient_dim",
        "any printed ray of the right length matches, on the derived ray or off it",
    ),
    Mutant(
        "audit_chain_ignores_the_printed_chain", "src/qgap/fixtures.py",
        "status = MATCH if all(printed_holds) and all(derived_holds) else MISMATCH",
        "status = MATCH if all(derived_holds) else MISMATCH",
        "a printed chain that fails matches whenever the derived chain holds",
    ),
    Mutant(
        "parse_span_refuses_no_vectors_as_a_shape_error", "src/qgap/lattice.py",
        'raise ParseError("a span needs at least one vector")',
        'raise ShapeError("a span needs at least one vector")',
        "a span of no vectors is refused with the right message but the wrong class",
    ),
]


def suite_env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def copy_tree(into: Path) -> Path:
    tree = into / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    return tree


def run_suite(tree: Path) -> bool:
    """Whether the suite passes in the copy; a run past the timeout counts as a failure."""
    env = suite_env(tree)
    probe = subprocess.run(
        [sys.executable, "-c", "import qgap; print(qgap.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    if not Path(probe.stdout.strip()).is_relative_to(tree):
        raise RuntimeError(f"the copy imports qgap from {probe.stdout.strip()}, not from {tree}")
    try:
        proc = subprocess.run(
            [sys.executable, *SUITE], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def judge(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="qgap-mutant-") as scratch:
        tree = copy_tree(Path(scratch))
        path = tree / mutant.file
        source = path.read_text("utf-8")
        if source.count(mutant.fragment) != 1:
            return "not found"
        path.write_text(source.replace(mutant.fragment, mutant.replacement), "utf-8")
        return "survived" if run_suite(tree) else "killed"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    with tempfile.TemporaryDirectory(prefix="qgap-mutant-") as scratch:
        if not run_suite(copy_tree(Path(scratch))):
            print("the unmutated tree fails the suite; no mutant was judged")
            return 2
    results = {}
    for mutant in chosen:
        start = time.perf_counter()
        results[mutant.name] = status = judge(mutant)
        print(f"{status:9}  {time.perf_counter() - start:6.1f} s  {mutant.name}: {mutant.reason}", flush=True)
    bad = [name for name, status in results.items() if status != "killed"]
    print(f"{len(results) - len(bad)} of {len(results)} killed" + (f"; not killed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
