"""Audit of the transcribed source displays against derived values.

``data/source_displays.json`` holds verbatim transcriptions of the printed
matrices, vectors and subspace families this engine reconstructs, keyed by
display label. The audit recomputes every object from definitions (spin
eigenvectors, outer products, tensor products, operator sums) and reports
MATCH or MISMATCH per fixture, with both values attached. A MISMATCH is a
finding about the transcribed text, never an assertion failure: a handful
of the printed displays carry typographical slips, and pinning those down
is exactly what the audit is for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable

from .lattice import Subspace
from .linalg import GaussianRational, Matrix, StateVector, state_tensor
from .projectors import Projector, range_of
from .propositions import Axis, Direction, compile_proposition
from .scalars import parse_scalar
from .scenario import (
    conjunction,
    different_spins,
    pair_observable,
    singlet,
    spin_basis,
    standard_context,
)

MATCH = "MATCH"
MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class FixtureResult:
    label: str
    kind: str
    status: str
    printed: str
    derived: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "status": self.status,
            "printed": self.printed,
            "derived": self.derived,
            "note": self.note,
        }


@dataclass(frozen=True)
class AuditSummary:
    total: int
    match_count: int
    mismatched: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "match": self.match_count,
            "mismatch": len(self.mismatched),
            "mismatched": list(self.mismatched),
        }


def _conj_projector(axis: Axis, a_dir: Direction, b_dir: Direction) -> Projector:
    return compile_proposition(conjunction(axis, a_dir, b_dir), standard_context())


def _diff_projector(axis: Axis) -> Projector:
    return compile_proposition(different_spins(axis), standard_context())


def _derivations() -> dict[str, Callable[[], object]]:
    table: dict[str, Callable[[], object]] = {}
    for ax in Axis:
        j = ax.value
        table[f"sigma_{j}{j}"] = lambda ax=ax: pair_observable(ax)
        table[f"proj_{j}_up_down"] = lambda ax=ax: _conj_projector(ax, Direction.UP, Direction.DOWN).matrix
        table[f"proj_{j}_down_up"] = lambda ax=ax: _conj_projector(ax, Direction.DOWN, Direction.UP).matrix
        table[f"diff_{j}_matrix"] = lambda ax=ax: _diff_projector(ax).matrix
        table[f"range_diff_{j}"] = lambda ax=ax: range_of(_diff_projector(ax))
        table[f"range_{j}_up_down"] = lambda ax=ax: range_of(_conj_projector(ax, Direction.UP, Direction.DOWN))
        table[f"range_{j}_down_up"] = lambda ax=ax: range_of(_conj_projector(ax, Direction.DOWN, Direction.UP))
        table[f"vector_{j}_up_down"] = lambda ax=ax: state_tensor(spin_basis(ax).up, spin_basis(ax).down)
        table[f"vector_{j}_down_up"] = lambda ax=ax: state_tensor(spin_basis(ax).down, spin_basis(ax).up)
        table[f"singlet_{j}"] = lambda ax=ax: singlet(ax)
    return table


def _parse_vector(entries: list[str]) -> tuple[GaussianRational, ...]:
    return tuple(parse_scalar(s) for s in entries)


def _parse_matrix(rows: list[list[str]]) -> Matrix:
    return Matrix.from_rows([[parse_scalar(s) for s in row] for row in rows])


def _parse_span(rows: list[list[str]]) -> Subspace:
    vectors = [StateVector(_parse_vector(row)) for row in rows]
    return Subspace.from_vectors(len(rows[0]), vectors)


def _show_vector(entries: tuple[GaussianRational, ...]) -> str:
    return "[" + ",".join(str(e) for e in entries) + "]"


def _ray_equal(printed: tuple[GaussianRational, ...], derived: StateVector) -> bool:
    if len(printed) != derived.dim:
        return False
    lead = next(i for i, e in enumerate(derived.entries) if not e.is_zero)
    if printed[lead].is_zero:
        return False
    factor = printed[lead] / derived.entries[lead]
    return all(p == factor * d for p, d in zip(printed, derived.entries))


def _bool_word(value: bool) -> str:
    return "true" if value else "false"


def _check_fixture(entry: dict, derivations: dict[str, Callable[[], object]]) -> FixtureResult:
    label = entry["label"]
    kind = entry["kind"]
    note = entry.get("note", "")

    if kind == "chain":
        printed_spans = [_parse_span(rows) for rows in entry["printed"]]
        derived_spans = [derivations[name]() for name in entry["derived"]]
        printed_holds = [printed_spans[i] <= printed_spans[i + 1] for i in range(2)]
        derived_holds = [derived_spans[i] <= derived_spans[i + 1] for i in range(2)]
        ray = StateVector.of(0, 1, -1, 0)
        in_all = all(s.contains(ray) for s in derived_spans)
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

    derived_value = derivations[entry["derived"]]()
    if kind == "matrix":
        printed = _parse_matrix(entry["printed"])
        status = MATCH if printed == derived_value else MISMATCH
        return FixtureResult(label, kind, status, str(printed), str(derived_value), note)
    if kind == "vector":
        printed = _parse_vector(entry["printed"])
        status = MATCH if printed == derived_value.entries else MISMATCH
        return FixtureResult(label, kind, status, _show_vector(printed), str(derived_value), note)
    if kind == "ray":
        printed = _parse_vector(entry["printed"])
        status = MATCH if _ray_equal(printed, derived_value) else MISMATCH
        return FixtureResult(label, kind, status, _show_vector(printed), str(derived_value), note)
    if kind == "range":
        printed = _parse_span(entry["printed"])
        status = MATCH if printed == derived_value else MISMATCH
        return FixtureResult(label, kind, status, str(printed), str(derived_value), note)
    raise ValueError(f"unknown fixture kind {kind!r} for {label}")


@lru_cache(maxsize=1)
def load_fixture_entries() -> tuple[dict, ...]:
    raw = resources.files("qgap").joinpath("data/source_displays.json").read_text("utf-8")
    return tuple(json.loads(raw)["fixtures"])


@lru_cache(maxsize=1)
def audit() -> tuple[FixtureResult, ...]:
    """Recompute every fixture and report MATCH or MISMATCH; never raises."""
    derivations = _derivations()
    return tuple(_check_fixture(entry, derivations) for entry in load_fixture_entries())


def audit_summary() -> AuditSummary:
    results = audit()
    mismatched = tuple(r.label for r in results if r.status == MISMATCH)
    return AuditSummary(len(results), len(results) - len(mismatched), mismatched)


def render_audit_table(results: tuple[FixtureResult, ...]) -> str:
    width = max(len(r.label) for r in results) + 2
    lines = []
    for r in results:
        lines.append(f"{r.label.ljust(width)}{r.status.ljust(10)}{r.note}".rstrip())
        if r.status == MISMATCH:
            lines.append(f"{''.ljust(width)}  printed: {r.printed}")
            lines.append(f"{''.ljust(width)}  derived: {r.derived}")
    summary = audit_summary()
    lines.append("")
    lines.append(
        f"{summary.total} fixtures: {summary.match_count} match, "
        f"{len(summary.mismatched)} mismatch"
    )
    return "\n".join(lines) + "\n"
