"""Comparison of the transcribed source displays with derived values.

``data/source_displays.json`` holds verbatim transcriptions of the printed
matrices, vectors and subspace families this engine reconstructs, keyed by
display label; each entry names the derived value it is compared with.
``check_fixtures`` reads the file and compares every entry with a table of
derived values that it is given (``scenario`` builds the pair space's
table), and reports MATCH or MISMATCH per fixture, with both values
attached. A MISMATCH is a finding about the transcribed text, never an
assertion failure: a handful of the printed displays carry typographical
slips, and pinning those down is exactly what the audit is for.

Printed text is read, compared and shown through the library's own values:
a vector or ray is a ``StateVector``, a matrix a ``Matrix``, and a range or
each span of a chain goes through ``parse_span``, the CLI's span reader.
Each result is a ``FixtureResult``, an immutable value (``scalars.Frozen``)
equal and hashed by its field tuple, whose ``to_dict`` lists its six fields
in order for the JSON output.
"""

from __future__ import annotations

import json
import pkgutil
from typing import Mapping, Sequence

from .errors import InvalidValueError, ParseError, QgapError
from .lattice import Subspace, parse_span
from .linalg import Matrix, StateVector
from .scalars import Frozen, parse_scalar

MATCH = "MATCH"
MISMATCH = "MISMATCH"


class FixtureResult(Frozen):
    _fields = ("label", "kind", "status", "printed", "derived", "note")

    def __init__(self, label: str, kind: str, status: str, printed: str, derived: str, note: str = "") -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "printed", printed)
        object.__setattr__(self, "derived", derived)
        object.__setattr__(self, "note", note)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "status": self.status,
            "printed": self.printed,
            "derived": self.derived,
            "note": self.note,
        }


class AuditSummary(Frozen):
    _fields = ("total", "match_count", "mismatched")

    def __init__(self, total: int, match_count: int, mismatched: tuple[str, ...]) -> None:
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "match_count", match_count)
        object.__setattr__(self, "mismatched", mismatched)

    @classmethod
    def of(cls, results: Sequence[FixtureResult]) -> "AuditSummary":
        mismatched = tuple(r.label for r in results if r.status == MISMATCH)
        return cls(len(results), len(results) - len(mismatched), mismatched)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "match": self.match_count,
            "mismatch": len(self.mismatched),
            "mismatched": list(self.mismatched),
        }


def _bool_word(value: bool) -> str:
    return "true" if value else "false"


# The type of derived value each kind compares against.
_KIND_TYPES = {"matrix": Matrix, "vector": StateVector, "ray": StateVector, "range": Subspace, "chain": Subspace}
# How deep each kind nests its printed strings: a vector or ray is a list of
# scalars, a matrix or range a list of rows, a chain a list of ranges.
_PRINTED_DEPTH = {"vector": 1, "ray": 1, "matrix": 2, "range": 2, "chain": 3}
# A chain links the z, x and y families: z <= x <= y.
_CHAIN_LENGTH = 3


class _Uncheckable(Exception):
    """An entry the audit cannot compare; the message becomes its note."""


def _derived_values(entry: dict, derivations: Mapping[str, object]) -> list[object]:
    missing = [key for key in ("label", "kind", "derived", "printed") if key not in entry]
    if missing:
        raise _Uncheckable(f"missing {' and '.join(missing)} value")
    if not isinstance(entry["label"], str):
        raise _Uncheckable(f"label is not a string: {entry['label']!r}")
    kind = entry["kind"]
    derived = entry["derived"]
    names = derived if kind == "chain" else [derived]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        expected = "a list of names" if kind == "chain" else "a name"
        raise _Uncheckable(f"derived value is not {expected}: {derived!r}")
    # A chain also tests the singlet against its ranges, so it needs that value too.
    needed = names + ["singlet_z"] if kind == "chain" else names
    unknown = [name for name in needed if name not in derivations]
    if unknown:
        raise _Uncheckable(f"unknown derived value {', '.join(map(repr, unknown))}")
    if not isinstance(kind, str) or kind not in _KIND_TYPES:
        raise _Uncheckable(f"unknown fixture kind {kind!r}")
    if kind == "chain" and len(names) != _CHAIN_LENGTH:
        raise _Uncheckable(f"a chain needs {_CHAIN_LENGTH} derived values, got {len(names)}")
    values = [derivations[name] for name in names]
    for name, value in zip(names, values):
        if not isinstance(value, _KIND_TYPES[kind]):
            expected = _KIND_TYPES[kind].__name__
            raise _Uncheckable(f"derived value {name!r} is a {type(value).__name__}, not a {expected}")
    if kind == "chain":
        dims = sorted({span.ambient_dim for span in values})
        if len(dims) != 1:
            raise _Uncheckable(f"derived spans differ in dimension: {dims}")
        singlet = derivations["singlet_z"]
        if not isinstance(singlet, StateVector):
            raise _Uncheckable(f"derived value 'singlet_z' is a {type(singlet).__name__}, not a StateVector")
        if singlet.dim != dims[0]:
            raise _Uncheckable(f"derived value 'singlet_z' has dimension {singlet.dim}, not the spans' {dims[0]}")
    return values


def _nests_strings(value: object, depth: int) -> bool:
    if depth == 0:
        return isinstance(value, str)
    return isinstance(value, list) and all(_nests_strings(v, depth - 1) for v in value)


def _printed_value(entry: dict) -> object:
    kind, printed = entry["kind"], entry["printed"]
    depth = _PRINTED_DEPTH[kind]
    if not _nests_strings(printed, depth):
        shape = "a list of " + "lists of " * (depth - 1) + "strings"
        raise _Uncheckable(f"printed {kind} is not {shape}: {printed!r}")
    if kind == "chain" and len(printed) != _CHAIN_LENGTH:
        raise _Uncheckable(f"a chain needs {_CHAIN_LENGTH} printed spans, got {len(printed)}")
    try:
        if kind == "matrix":
            return Matrix.from_rows([[parse_scalar(s) for s in row] for row in printed])
        if kind == "range":
            return parse_span(printed)
        if kind == "chain":
            spans = [parse_span(rows) for rows in printed]
            if len({span.ambient_dim for span in spans}) != 1:
                raise ParseError("spans of different dimensions")
            return spans
        return StateVector(tuple(parse_scalar(s) for s in printed))
    except QgapError as exc:
        raise _Uncheckable(f"unparseable printed {kind}: {exc}") from None


def _check_fixture(entry: object, derivations: Mapping[str, object]) -> FixtureResult:
    if not isinstance(entry, dict):
        return FixtureResult("", "", MISMATCH, "", "", f"entry is not an object: {entry!r}")
    label, kind = (v if isinstance(v, str) else "" for v in (entry.get("label"), entry.get("kind")))
    note = entry.get("note", "")
    try:
        derived = _derived_values(entry, derivations)
        printed = _printed_value(entry)
    except _Uncheckable as exc:
        return FixtureResult(label, kind, MISMATCH, "", "", str(exc))

    if kind == "chain":
        printed_holds = [printed[i] <= printed[i + 1] for i in range(2)]
        derived_holds = [derived[i] <= derived[i + 1] for i in range(2)]
        in_all = all(s.contains(derivations["singlet_z"]) for s in derived)
        status = MATCH if all(printed_holds) and all(derived_holds) else MISMATCH
        printed_text = (
            f"z<=x: {_bool_word(printed_holds[0])}, x<=y: {_bool_word(printed_holds[1])}"
            " (printed families)"
        )
        derived_text = (
            f"z<=x: {_bool_word(derived_holds[0])}, x<=y: {_bool_word(derived_holds[1])}"
            f" (derived ranges); singlet in all three: {_bool_word(in_all)}"
        )
        return FixtureResult(label, kind, status, printed_text, derived_text, note)

    (derived_value,) = derived
    if kind == "ray":  # equal up to a nonzero scale: the printed state lies on the derived ray
        ray = Subspace.from_vectors(derived_value.dim, [derived_value])
        same = printed.dim == ray.ambient_dim and ray.contains(printed)
    else:
        same = printed == derived_value
    try:  # the canonical basis of a printed range can outgrow the decimal printer
        printed_text = str(printed)
    except InvalidValueError as exc:
        return FixtureResult(label, kind, MISMATCH, "", "", f"unprintable printed {kind}: {exc}")
    return FixtureResult(label, kind, MATCH if same else MISMATCH, printed_text, str(derived_value), note)


def load_fixture_entries() -> tuple[dict, ...]:
    raw = pkgutil.get_data(__package__, "data/source_displays.json")
    return tuple(json.loads(raw.decode("utf-8"))["fixtures"])


def check_fixtures(derivations: Mapping[str, object]) -> tuple[FixtureResult, ...]:
    """Compare every transcribed fixture with its named derived value.

    A malformed entry is a MISMATCH, never an exception. A chain entry also
    reads the singlet as ``derivations["singlet_z"]``.
    """
    return tuple(_check_fixture(entry, derivations) for entry in load_fixture_entries())


def render_audit_table(results: tuple[FixtureResult, ...]) -> str:
    width = max((len(r.label) for r in results), default=0) + 2
    lines = []
    for r in results:
        lines.append(f"{r.label.ljust(width)}{r.status.ljust(10)}{r.note}".rstrip())
        if r.status == MISMATCH:
            lines.append(f"{''.ljust(width)}  printed: {r.printed}")
            lines.append(f"{''.ljust(width)}  derived: {r.derived}")
    summary = AuditSummary.of(results)
    lines.append("")
    lines.append(
        f"{summary.total} fixtures: {summary.match_count} match, "
        f"{len(summary.mismatched)} mismatch"
    )
    return "\n".join(lines) + "\n"
