"""Output checks computed apart from the program.

Every check reads the program's *output* (CSV text, reply payloads,
result fields) and recomputes what must hold with its own code: a
textbook Levenshtein, absolute differences, the standard-library CSV
reader and a small RFD-text parser.  None of it imports ``repro``.  A
failed check raises :class:`~common.CheckFailed`, which the operation
tally counts as a failed operation.
"""

from __future__ import annotations

import csv
import io
import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from common import CheckFailed

#: Cell texts that mean "missing" in the program's CSV format (the
#: documented null literals, compared case-insensitively).
NULL_LITERALS = frozenset({"", "_", "?", "na", "n/a", "null", "none"})

_CONSTRAINT = re.compile(r"\s*([^,(]+?)\s*\(\s*<=\s*([0-9.eE+-]+)\s*\)\s*")


def levenshtein(a: str, b: str) -> int:
    """Textbook dynamic-programming edit distance."""
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (char_a != char_b),
            ))
        previous = current
    return previous[-1]


def is_null(text: str) -> bool:
    return text.strip().lower() in NULL_LITERALS


_TRUE = frozenset({"true", "t", "yes", "y"})
_FALSE = frozenset({"false", "f", "no", "n"})


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _is_float(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return value == value and abs(value) != float("inf")


def infer_kinds(header: Sequence[str], rows: Sequence[Sequence[str]]
                ) -> dict[str, str]:
    """Column kinds by the CSV format's documented rule: boolean when
    every present cell is a true/false literal, else integer, float or
    string, the narrowest that every present cell parses as."""
    kinds = {}
    for column, name in enumerate(header):
        cells = [row[column].strip() for row in rows
                 if not is_null(row[column])]
        if not cells:
            kinds[name] = "string"
        elif all(cell.lower() in _TRUE | _FALSE for cell in cells):
            kinds[name] = "boolean"
        elif all(_is_int(cell) for cell in cells):
            kinds[name] = "integer"
        elif all(_is_float(cell) for cell in cells):
            kinds[name] = "float"
        else:
            kinds[name] = "string"
    return kinds


def typed(kind: str, text: str):
    """A cell's value under its column kind (``None`` when missing)."""
    if is_null(text):
        return None
    text = text.strip() if kind != "string" else text
    if kind == "integer":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "boolean":
        return text.lower() in _TRUE
    return text


def distance(kind: str, a, b) -> float:
    """Edit distance for strings, absolute difference for numbers,
    0/1 inequality for booleans."""
    if kind == "string":
        return float(levenshtein(a, b))
    if kind == "boolean":
        return 0.0 if a == b else 1.0
    return abs(float(a) - float(b))


def parse_rfd(text: str) -> tuple[list[tuple[str, float]], tuple[str, float]]:
    """``A(<=1), B(<=0) -> C(<=2)`` as ``([(A, 1), (B, 0)], (C, 2))``."""
    if "->" not in text:
        raise CheckFailed(f"not an RFD: {text!r}")
    left, right = text.split("->", 1)
    lhs = [
        (match.group(1), float(match.group(2)))
        for match in _CONSTRAINT.finditer(left)
    ]
    rhs_match = _CONSTRAINT.fullmatch(right)
    if not lhs or rhs_match is None:
        raise CheckFailed(f"cannot parse RFD {text!r}")
    return lhs, (rhs_match.group(1), float(rhs_match.group(2)))


@dataclass
class Table:
    """An instance as rows of cells.

    Cells are CSV texts (:meth:`from_csv`, read with the standard-library
    reader) or, with ``raw``, the program's in-memory values with
    ``missing`` as the missing-value sentinel.
    """

    header: list[str]
    rows: list[Sequence]
    kinds: Mapping[str, str]
    raw: bool = False
    missing: object = None

    @classmethod
    def from_csv(cls, text: str, kinds: Mapping[str, str] | None = None
                 ) -> "Table":
        """Read CSV text; column kinds are inferred unless given (pass
        the input's kinds when reading an output)."""
        records = list(csv.reader(io.StringIO(text)))
        if not records:
            raise CheckFailed("empty CSV output")
        header, rows = records[0], records[1:]
        if kinds is None:
            kinds = infer_kinds(header, rows)
        elif set(header) != set(kinds):
            raise CheckFailed(f"unexpected header {header}")
        return cls(header, rows, kinds)

    def is_missing(self, cell) -> bool:
        if self.raw:
            return cell is self.missing or cell is None
        return is_null(cell)

    def column(self, attribute: str) -> int:
        try:
            return self.header.index(attribute)
        except ValueError:
            raise CheckFailed(f"no attribute {attribute!r}") from None

    def cell(self, row: int, attribute: str):
        return self.rows[row][self.column(attribute)]

    def value(self, row: int, attribute: str):
        cell = self.cell(row, attribute)
        if self.is_missing(cell):
            return None
        return cell if self.raw else typed(self.kinds[attribute], cell)

    def holds(self, cell, value) -> bool:
        """Whether ``cell`` renders the reported ``value``."""
        return cell == value if self.raw else cell == str(value)


def outcome_dict(outcome) -> dict:
    """A program ``CellOutcome`` in the service's reply shape."""
    return {
        "row": outcome.row,
        "attribute": outcome.attribute,
        "status": outcome.status.value,
        "value": outcome.value,
        "source_row": outcome.source_row,
        "rfd": None if outcome.rfd is None else str(outcome.rfd),
    }


_FILLED = ("imputed", "degraded")


def check_cells(
    before: Table,
    after: Table,
    outcomes: Sequence[Mapping] | None = None,
) -> int:
    """Present cells unchanged; filled cells were missing before.

    With ``outcomes`` (reply-shaped dicts), every filled cell must be
    reported filled with the value written, and every imputed cell must
    equal its cited donor's value with the donor meeting each LHS
    threshold of the cited RFD against the target.  Returns the number
    of cells filled.
    """
    if after.header != before.header:
        raise CheckFailed(f"header changed: {before.header} -> {after.header}")
    if len(after.rows) != len(before.rows):
        raise CheckFailed(
            f"row count changed: {len(before.rows)} -> {len(after.rows)}"
        )
    reported = {}
    for outcome in outcomes or ():
        if outcome["status"] in _FILLED:
            reported[(outcome["row"], outcome["attribute"])] = outcome
    filled = 0
    for index, (old, new) in enumerate(zip(before.rows, after.rows)):
        if old == new:
            continue
        if len(new) != len(old):
            raise CheckFailed(f"row {index} changed width")
        for attribute, old_cell, new_cell in zip(before.header, old, new):
            if not before.is_missing(old_cell):
                if new_cell != old_cell:
                    raise CheckFailed(
                        f"present cell ({index}, {attribute}) changed "
                        f"{old_cell!r} -> {new_cell!r}"
                    )
                continue
            if after.is_missing(new_cell):
                continue
            filled += 1
            if outcomes is None:
                continue
            outcome = reported.get((index, attribute))
            if outcome is None:
                raise CheckFailed(
                    f"cell ({index}, {attribute}) filled with "
                    f"{new_cell!r} but not reported filled"
                )
            if not after.holds(new_cell, outcome["value"]):
                raise CheckFailed(
                    f"cell ({index}, {attribute}) holds {new_cell!r}, "
                    f"reported {outcome['value']!r}"
                )
    if outcomes is not None:
        if filled != len(reported):
            raise CheckFailed(
                f"{len(reported)} cells reported filled, {filled} filled"
            )
        for outcome in reported.values():
            if outcome["status"] == "imputed":
                check_donor(after, outcome)
    return filled


def check_donor(table: Table, outcome: Mapping) -> None:
    """The imputed value is the donor's, and the donor meets every LHS
    threshold of the cited RFD against the target row."""
    row, attribute = outcome["row"], outcome["attribute"]
    donor = outcome["source_row"]
    if donor is None or outcome["rfd"] is None:
        raise CheckFailed(f"imputed cell ({row}, {attribute}) cites no donor")
    if not 0 <= donor < len(table.rows) or donor == row:
        raise CheckFailed(f"cell ({row}, {attribute}) cites donor {donor}")
    lhs, (rhs, _) = parse_rfd(outcome["rfd"])
    if rhs != attribute:
        raise CheckFailed(
            f"cell ({row}, {attribute}) cites RFD on {rhs}: {outcome['rfd']}"
        )
    if table.cell(donor, attribute) != table.cell(row, attribute):
        raise CheckFailed(
            f"cell ({row}, {attribute}) = {table.cell(row, attribute)!r} "
            f"but donor {donor} holds {table.cell(donor, attribute)!r}"
        )
    for name, threshold in lhs:
        a, b = table.value(row, name), table.value(donor, name)
        if a is None or b is None:
            raise CheckFailed(
                f"cell ({row}, {attribute}): LHS {name} missing on "
                f"target or donor {donor}"
            )
        gap = distance(table.kinds[name], a, b)
        if gap > threshold:
            raise CheckFailed(
                f"cell ({row}, {attribute}): donor {donor} is {gap} "
                f"apart on {name}, RFD allows {threshold}"
            )


def check_rfds_hold(
    table: Table, rfd_texts: Iterable[str], *, pairs: int, seed: int
) -> None:
    """Every RFD holds on a seeded sample of tuple pairs.

    A pair violates ``X -> A`` when both tuples are present and within
    threshold on every LHS attribute, present on ``A`` and farther apart
    on ``A`` than its threshold.
    """
    n = len(table.rows)
    if n < 2:
        return
    rng = random.Random(seed)
    sample = set()
    limit = min(pairs, n * (n - 1) // 2)
    while len(sample) < limit:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            sample.add((min(a, b), max(a, b)))
    gaps: dict[tuple[int, int, str], float | None] = {}

    def gap(a: int, b: int, name: str) -> float | None:
        key = (a, b, name)
        if key not in gaps:
            x, y = table.value(a, name), table.value(b, name)
            gaps[key] = (
                None if x is None or y is None
                else distance(table.kinds[name], x, y)
            )
        return gaps[key]

    parsed = [(text, parse_rfd(text)) for text in rfd_texts]
    for a, b in sorted(sample):
        for text, (lhs, (rhs, rhs_threshold)) in parsed:
            matched = True
            for name, threshold in lhs:
                value = gap(a, b, name)
                if value is None or value > threshold:
                    matched = False
                    break
            if not matched:
                continue
            value = gap(a, b, rhs)
            if value is not None and value > rhs_threshold:
                raise CheckFailed(
                    f"RFD {text} violated by tuples ({a}, {b}): "
                    f"{rhs} {value} apart"
                )


def check_sampled(n_pairs: int, exact: bool, max_pairs: int) -> None:
    if n_pairs != max_pairs or exact:
        raise CheckFailed(
            f"sampled discovery reported n_pairs={n_pairs}, exact={exact}; "
            f"expected {max_pairs} sampled pairs"
        )


def check_store_growth(
    previous: Table, batch: Table, store: Table
) -> int:
    """The committed store is the previous store plus exactly the
    ingested rows: present cells unchanged, fills only where cells were
    missing.  Returns the number of cells filled."""
    expected = Table(previous.header, previous.rows + batch.rows,
                     previous.kinds)
    if batch.header != previous.header:
        raise CheckFailed("batch header differs from the store's")
    return check_cells(expected, store)
