"""The four workloads: seeded inputs, the timed operation and its checker.

Every workload is a closed loop with one client: an op starts only after the
previous one has returned and its answer has been checked. Inputs are plain
data made from the seed by ``inputs(name, seed)``; qgap sees only the values
built from them. Checkers take plain data too (``serialize`` turns a qgap
result into it), so a test can hand them a wrong answer without qgap.

Why these four (also in ``BENCHMARK.json``):

* ``epr_mix``: the paper's scenario as a library caller runs it. Compiling the
  30 constant propositions dominates each run and the classical enumeration
  sets the tail, so a compile memo or an enumeration fix acts here.
* ``valuate_mix``: the same compile layer on propositions that rarely repeat,
  so a memo of constants gives nothing and a general memo's cost shows.
* ``lattice_mix``: generic non-commuting spans in C^4 at two entry heights;
  scalars, linalg and lattice do nearly all the work, propositions none.
* ``cli_cold``: one fresh ``python -m qgap.cli`` process per op, the only
  place interpreter start, import, argparse, the cold audit and rendering show.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import exact

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

PARTICLES = ("A", "B")
AXES = ("x", "y", "z")
DIRECTIONS = ("up", "down")
ATOMS = tuple(f"{p}.{a}.{d}" for p in PARTICLES for a in AXES for d in DIRECTIONS)

LATTICE_OPS = (
    "meet", "join", "orthocomplement", "leq", "contains",
    "projector_onto", "projector_meet", "projector_join",
)
# meet (the op ROADMAP item 3 rewrites) has four slots in a deck, each other
# op one. Op costs form clusters (leq/contains ~0.2 ms, join/complement
# ~1 ms, meet/onto ~4 ms, projector meet/join ~10 ms); with one slot each the
# median fell in the gap between two clusters.
LATTICE_WEIGHTS = (4, 1, 1, 1, 1, 1, 1, 1)
# |numerator| and denominator bounds: spin-like data, and large heights that
# catch a scalar rewrite tuned only for small entries.
HEIGHTS = (2, 1000)
# Every deck holds each slot once, so the mix of a run does not depend on the
# seed: only the values drawn for each slot and their order do.
EPR_SIZES = range(1, 7)
STATE_KINDS = ("singlet", "product", "random")
VALUATE_SLOTS = tuple((n, kind) for n in range(1, 5) for kind in STATE_KINDS)
LATTICE_SLOTS = tuple(
    (op, h) for op, weight in zip(LATTICE_OPS, LATTICE_WEIGHTS) for _ in range(weight) for h in HEIGHTS
)

# One deck; a slot named twice is drawn twice. Op costs form two clusters:
# start-up plus a little work (lattice, malformed, known-defect ~80 ms,
# valuate ~120 ms) and commands that run the audit (paper-check ~250 ms,
# epr-run ~500 ms). Eight cheap slots of thirteen keep the median inside the
# cheap cluster rather than on its edge with valuate, and three epr-run
# slots keep the tail percentile (about the 90th) inside the epr-run one.
CLI_SLOTS = (
    "epr-run/table", "epr-run/table", "epr-run/json", "valuate/table", "valuate/json",
    "lattice/table", "lattice/table", "lattice/json", "paper-check/table", "paper-check/json",
    "malformed", "malformed", "known-defect",
)
CLI_COLD_ARGV = ["epr-run", "--axis", "z", "--query", "B.z.down,B.x.up"]


def child_env() -> dict:
    """Environment for child interpreters: qgap from the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def load_reference(name: str):
    return json.loads((REFERENCE_DIR / name).read_text("utf-8"))


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


# ---------------------------------------------------------------- generators


def _frac(rng, h):
    return Fraction(rng.randint(-h, h), rng.randint(1, h))


def random_entry(rng, h):
    im = _frac(rng, h) if rng.random() < 0.5 else Fraction(0)
    return (_frac(rng, h), im)


def _nonzero_entry(rng, h):
    while True:
        e = random_entry(rng, h)
        if not exact.is_zero(e):
            return e


def random_vector(rng, h, dim=4):
    while True:
        v = [random_entry(rng, h) for _ in range(dim)]
        if any(not exact.is_zero(e) for e in v):
            return v


def _combination(rng, vectors):
    while True:
        v = [exact.ZERO] * len(vectors[0])
        for vec in vectors:
            coeff = random_entry(rng, 2)
            v = [exact.add(x, exact.mul(coeff, y)) for x, y in zip(v, vec)]
        if any(not exact.is_zero(e) for e in v):
            return v


def epr_deck(rng):
    """One query of each size 1-6, each axis twice, paired in seeded order."""
    sizes = rng.sample(EPR_SIZES, len(EPR_SIZES))
    axes = rng.sample(AXES * 2, len(sizes))
    return [(axis, tuple(rng.sample(ATOMS, k))) for axis, k in zip(axes, sizes)]


def _atom(particle, axis, direction):
    return ("atom", f"{particle}.{axis}.{direction}")


def _tree(rng, particles, depth):
    """A legal proposition over ``particles``.

    ``&`` joins an A-only operand with a B-only one, so its operands commute;
    ``^`` joins operands holding opposite atoms of one (particle, axis) as
    conjuncts, so its operands are orthogonal.
    """
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng.choice(particles), rng.choice(AXES), rng.choice(DIRECTIONS))
    if len(particles) == 2 and rng.random() < 0.5:
        left, right = _tree(rng, ("A",), depth - 1), _tree(rng, ("B",), depth - 1)
        return ("&", left, right) if rng.random() < 0.5 else ("&", right, left)
    p, ax, d = rng.choice(particles), rng.choice(AXES), rng.choice(DIRECTIONS)
    other = tuple(q for q in particles if q != p)
    sides = []
    for direction in (d, "down" if d == "up" else "up"):
        side = _atom(p, ax, direction)
        if other and rng.random() < 0.6:
            rest = _tree(rng, other, depth - 1)
            side = ("&", side, rest) if rng.random() < 0.5 else ("&", rest, side)
        sides.append(side)
    return ("^", sides[0], sides[1])


def connectives(tree) -> int:
    return 0 if tree[0] == "atom" else 1 + connectives(tree[1]) + connectives(tree[2])


def tree_text(tree) -> str:
    if tree[0] == "atom":
        return tree[1]
    def wrap(t):
        return t[1] if t[0] == "atom" else f"({tree_text(t)})"
    return f"{wrap(tree[1])} {tree[0]} {wrap(tree[2])}"


def proposition_tree(rng, target):
    """A legal proposition with ``target`` connectives."""
    while True:
        tree = _tree(rng, PARTICLES, 3)
        if connectives(tree) == target:
            return tree


def _spin(axis, direction):
    up = {"x": [exact.ONE, exact.ONE], "y": [exact.ONE, exact.I], "z": [exact.ONE, exact.ZERO]}
    down = {"x": [exact.ONE, exact.c(-1)], "y": [exact.ONE, exact.c(0, -1)], "z": [exact.ZERO, exact.ONE]}
    return (up if direction == "up" else down)[axis]


def valuate_state(rng, kind):
    """The singlet, a product of spin eigenvectors, or a random vector."""
    if kind == "random":
        return random_vector(rng, 5)
    if kind == "singlet":
        base = [exact.ZERO, exact.ONE, exact.c(-1), exact.ZERO]
    else:
        u = _spin(rng.choice(AXES), rng.choice(DIRECTIONS))
        w = _spin(rng.choice(AXES), rng.choice(DIRECTIONS))
        base = [exact.mul(x, y) for x in u for y in w]
    scale = _nonzero_entry(rng, 3)
    return [exact.mul(scale, e) for e in base]


def valuate_deck(rng):
    slots = rng.sample(VALUATE_SLOTS, len(VALUATE_SLOTS))
    return [(proposition_tree(rng, n), valuate_state(rng, kind)) for n, kind in slots]


def lattice_input(rng, op, h):
    a = [random_vector(rng, h) for _ in range(rng.randint(1, 3))]
    b = v = None
    if op == "leq":
        b = [random_vector(rng, h) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            a = [_combination(rng, b) for _ in range(rng.randint(1, len(b)))]
    elif op in ("meet", "join", "projector_meet", "projector_join"):
        b = [random_vector(rng, h) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            b[0] = _combination(rng, a)
    elif op == "contains":
        v = _combination(rng, a) if rng.random() < 0.5 else random_vector(rng, h)
    return {"op": op, "a": a, "b": b, "v": v}


def lattice_deck(rng):
    slots = rng.sample(LATTICE_SLOTS, len(LATTICE_SLOTS))
    return [lattice_input(rng, op, h) for op, h in slots]


def _stream(name, seed, deck):
    rng = _rng(name, seed)
    while True:
        yield from deck(rng)


def cli_inputs(seed, catalog):
    """Decks of one entry per slot, in seeded order.

    Each slot deals its recorded variants in seeded shuffles, every variant
    once before any repeats, so a run's mix of variants hardly depends on
    the seed.
    """
    rng = _rng("cli_cold", seed)
    variants = {slot: [e for e in catalog if e["slot"] == slot] for slot in CLI_SLOTS}
    dealt = {slot: [] for slot in CLI_SLOTS}
    while True:
        for slot in rng.sample(CLI_SLOTS, len(CLI_SLOTS)):
            if not dealt[slot]:
                dealt[slot] = rng.sample(variants[slot], len(variants[slot]))
            yield dealt[slot].pop()


def inputs(name, seed):
    """The endless, seed-determined input stream of a workload."""
    if name == "cli_cold":
        return cli_inputs(seed, load_reference("cli.json")["catalog"])
    deck = {"epr_mix": epr_deck, "valuate_mix": valuate_deck, "lattice_mix": lattice_deck}[name]
    return _stream(name, seed, deck)


# ------------------------------------------------------------------ checkers


def expected_epr(inp, ref):
    axis, query = inp
    r = ref["axes"][axis]

    def pop(kind):
        sets = [r[kind][a] for a in query]
        return [list(query), [list(t) for t in itertools.product(*sets)]]

    return {
        "axis": axis,
        "verified": r["verified"],
        "prepared": r["prepared"],
        "post": r["post"],
        "pre": r["pre"],
        "post_vals": r["post_vals"],
        "classical": pop("classical"),
        "super": pop("super"),
        "fixtures": ref["fixtures"],
    }


def check_epr(inp, out, ref) -> bool:
    """Compare against the reference recorded from the seed commit.

    The populations are cross products of per-atom value sets, each recorded
    from a one-atom run, so every query of up to six atoms has a reference.
    """
    return out == expected_epr(inp, ref)


_ATOM_PROJECTORS: dict = {}


def atom_projector(name):
    if name not in _ATOM_PROJECTORS:
        particle, axis, direction = name.split(".")
        one = exact.outer_projector(_spin(axis, direction))
        eye = exact.identity(2)
        _ATOM_PROJECTORS[name] = exact.kron(one, eye) if particle == "A" else exact.kron(eye, one)
    return _ATOM_PROJECTORS[name]


def expected_projector(tree):
    """Product for ``&`` (commuting operands), sum for ``^`` (orthogonal ones)."""
    if tree[0] == "atom":
        return atom_projector(tree[1])
    left, right = expected_projector(tree[1]), expected_projector(tree[2])
    return exact.matmul(left, right) if tree[0] == "&" else exact.mat_add(left, right)


def expected_value(projector, state) -> str:
    image = exact.apply(projector, state)
    if all(exact.is_zero(e) for e in image):
        return "false"
    return "true" if image == state else "gap"


def check_valuate(inp, out) -> bool:
    tree, state = inp
    projector = expected_projector(tree)
    return out["matrix"] == projector and out["value"] == expected_value(projector, state)


def _is_projector(m) -> bool:
    return len(m) == 4 and m == exact.adjoint(m) and exact.matmul(m, m) == m


def check_lattice(inp, out) -> bool:
    """Lattice invariants, computed on the generated vectors."""
    op, a, b, v = inp["op"], inp["a"], inp["b"], inp["v"]
    rank = exact.rank
    ra = rank(a)
    if op == "orthocomplement":
        return (
            len(out) == 4 - ra
            and rank(out) == len(out)
            and all(exact.is_zero(exact.dot(x, y)) for x in a for y in out)
        )
    if op == "contains":
        return out is (rank(a + [v]) == ra)
    if op == "projector_onto":
        return _is_projector(out) and rank(exact.columns(out)) == ra and all(
            exact.apply(out, x) == x for x in a
        )
    rb, rab = rank(b), rank(a + b)
    meet_dim = ra + rb - rab
    if op == "leq":
        return out is (rab == rb)
    if op == "meet":
        return (
            len(out) == meet_dim
            and rank(out) == meet_dim
            and rank(a + out) == ra
            and rank(b + out) == rb
        )
    if op == "join":
        return len(out) == rab and rank(out) == rab and rank(out + a + b) == rab
    if not _is_projector(out):
        return False
    cols = exact.columns(out)
    if op == "projector_meet":
        return rank(cols) == meet_dim and rank(a + cols) == ra and rank(b + cols) == rb
    return rank(cols) == rab and all(exact.apply(out, x) == x for x in a + b)


def check_cli(entry, out) -> bool:
    """Exit code, stdout and stderr as recorded, and never a traceback.

    A known-defect entry carries the documented answer (exit 2 with a
    one-line usage error), not what the seed commit printed.
    """
    code, stdout, stderr = out
    if "Traceback" in stderr or code != entry["code"] or stdout != entry["stdout"]:
        return False
    if entry.get("known_defect"):
        return len(stderr.splitlines()) == 1 and stderr.startswith(entry["stderr_prefix"])
    return stderr == entry["stderr"]


# ----------------------------------------------------------------- workloads


def _rows(matrix):
    e = [(x.re, x.im) for x in matrix.entries]
    return [e[i : i + matrix.cols] for i in range(0, len(e), matrix.cols)]


def _vectors(subspace):
    return [[(x.re, x.im) for x in vec.entries] for vec in subspace.basis]


def serialize_report(r) -> dict:
    def pop(p):
        return [list(p.labels), [list(t) for t in p.tuples]]

    s = r.fixture_summary
    return {
        "axis": r.verify_axis.value,
        "verified": str(r.verified_atom),
        "prepared": [str(e) for e in r.prepared_state.entries],
        "post": [str(e) for e in r.post_state.entries],
        "pre": [[x.label, x.value.value] for x in r.pre_valuations],
        "post_vals": [[x.label, x.value.value] for x in r.post_valuations],
        "classical": pop(r.classical_population),
        "super": pop(r.super_population),
        "fixtures": [s.total, s.match_count, list(s.mismatched)],
    }


class Workload:
    """One workload. ``run`` is the timed op; everything else is untimed."""

    name = ""
    trace_ops = 0  # ops in a traced run: whole decks, so its counts repeat exactly
    deck = 1  # a timed run ends on a multiple of this many ops: whole decks
    uses_audit = False

    def __init__(self, seed: int):
        import qgap

        self.qgap = qgap
        self.seed = seed

    def inputs(self):
        return inputs(self.name, self.seed)

    def serialize(self, result):
        return result

    def known_defect(self, inp) -> bool:
        return False


class EprMix(Workload):
    name = "epr_mix"
    trace_ops = 2 * len(EPR_SIZES)
    deck = len(EPR_SIZES)
    uses_audit = True
    cold_input = ("z", ("B.z.down", "B.x.up"))

    def __init__(self, seed):
        super().__init__(seed)
        self.ref = load_reference("epr.json")

    def prepare(self, inp):
        q = self.qgap
        axis, query = inp
        atoms = tuple(
            q.Atom(q.Particle(p), q.Axis(a), q.Direction(d))
            for p, a, d in (s.split(".") for s in query)
        )
        return q.Axis(axis), atoms

    def run(self, prepared):
        return self.qgap.run_epr(*prepared)

    def serialize(self, report):
        return serialize_report(report)

    def check(self, inp, out):
        return check_epr(inp, out, self.ref)


class ValuateMix(Workload):
    name = "valuate_mix"
    trace_ops = 8 * len(VALUATE_SLOTS)
    deck = len(VALUATE_SLOTS)
    cold_input = (("&", ("atom", "A.z.up"), ("atom", "B.z.down")), [exact.ZERO, exact.ONE, exact.c(-1), exact.ZERO])

    def prepare(self, inp):
        q = self.qgap
        tree, state = inp
        return tree_text(tree), q.StateVector(tuple(q.GaussianRational(re, im) for re, im in state))

    def run(self, prepared):
        q = self.qgap
        text, state = prepared
        projector = q.compile_proposition(q.parse_proposition(text), q.standard_context())
        return q.valuate(state, projector), projector

    def serialize(self, result):
        value, projector = result
        return {"value": value.value, "matrix": _rows(projector.matrix)}

    def check(self, inp, out):
        return check_valuate(inp, out)


class LatticeMix(Workload):
    name = "lattice_mix"
    trace_ops = 18 * len(LATTICE_SLOTS)
    deck = len(LATTICE_SLOTS)
    cold_input = {
        "op": "meet",
        "a": [[exact.ONE, exact.ONE, exact.ZERO, exact.I], [exact.ZERO, exact.ONE, exact.c(2), exact.ZERO]],
        "b": [[exact.ONE, exact.ZERO, exact.c(-1), exact.ONE], [exact.ZERO, exact.c(1, 1), exact.ONE, exact.ZERO]],
        "v": None,
    }

    def _span(self, vectors):
        q = self.qgap
        states = [q.StateVector(tuple(q.GaussianRational(re, im) for re, im in v)) for v in vectors]
        return q.Subspace.from_vectors(4, states)

    def prepare(self, inp):
        q = self.qgap
        op = inp["op"]
        a = self._span(inp["a"])
        b = self._span(inp["b"]) if inp["b"] is not None else None
        if op in ("projector_meet", "projector_join"):
            return op, (q.projector_onto(a), q.projector_onto(b))
        if op == "contains":
            return op, (a, q.StateVector(tuple(q.GaussianRational(re, im) for re, im in inp["v"])))
        if op in ("orthocomplement", "projector_onto"):
            return op, (a,)
        return op, (a, b)

    def run(self, prepared):
        q = self.qgap
        op, args = prepared
        if op == "meet":
            return args[0].meet(args[1])
        if op == "join":
            return args[0].join(args[1])
        if op == "orthocomplement":
            return args[0].orthocomplement()
        if op == "leq":
            return args[0].leq(args[1])
        if op == "contains":
            return args[0].contains(args[1])
        if op == "projector_onto":
            return q.projector_onto(args[0])
        if op == "projector_meet":
            return q.projector_meet(*args)
        return q.projector_join(*args)

    def serialize(self, result):
        if isinstance(result, bool):
            return result
        if isinstance(result, self.qgap.Projector):
            return _rows(result.matrix)
        return _vectors(result)

    def check(self, inp, out):
        return check_lattice(inp, out)


class CliCold(Workload):
    name = "cli_cold"
    trace_ops = len(CLI_SLOTS)
    deck = len(CLI_SLOTS)
    uses_audit = True

    def __init__(self, seed):
        super().__init__(seed)
        self.catalog = load_reference("cli.json")["catalog"]
        self.cold_input = next(e for e in self.catalog if e["argv"] == CLI_COLD_ARGV)
        self.env = child_env()

    def inputs(self):
        return cli_inputs(self.seed, self.catalog)

    def prepare(self, entry):
        return entry["argv"]

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "qgap.cli", *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_child(self, mode, argv):
        """One ``cli_child.py`` process; returns its report and wall seconds."""
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), mode, *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cli_child failed: {proc.stderr.strip()[-500:]}")
        return json.loads(proc.stdout.splitlines()[-1]), wall

    def check(self, entry, out):
        return check_cli(entry, out)

    def known_defect(self, entry):
        return bool(entry.get("known_defect"))


WORKLOADS = {w.name: w for w in (EprMix, ValuateMix, LatticeMix, CliCold)}
