"""The benchmark's output checks catch planted errors.

Run with ``python -m pytest perfbench -q`` from the checkout root.  Each
planted error goes through :func:`common.run_op`, the same accounting
every benchmark operation uses, and must come out as a failed
operation; the untampered output must pass.
"""

from __future__ import annotations

import json

import pytest

import checks
from common import ROOT, CheckFailed, Tally, require_checkout, run_op, tail

require_checkout()

from repro import Renuver, parse_rfd, read_csv_text  # noqa: E402
from repro.dataset import to_csv_text  # noqa: E402

#: Table 2 of the paper and its RFDs (Figure 1 imputes all four cells).
TABLE2 = """Name,City,Phone,Type,Class
Granita,Malibu,310/456-0488,Californian,6
Chinos Main,LA,310-932-9025,French,5
Citrus,Los Angeles,213/857-0034,Californian,6
Citrus,Los Angeles,,Californian,6
Fenix,Hollywood,213/848-6677,,5
Fenix Argyle,,213/848-6677,French (new),5
C. Main,Los Angeles,,French,5
"""
RFDS = (
    "Name(<=8), Phone(<=0), Class(<=1) -> Type(<=0)",
    "Class(<=0) -> Type(<=5)",
    "City(<=2) -> Phone(<=2)",
    "Name(<=4) -> Phone(<=1)",
    "Name(<=8), Phone(<=0) -> City(<=9)",
    "Name(<=6), City(<=9) -> Phone(<=0)",
    "Phone(<=1) -> Class(<=0)",
)


def impute_table2():
    relation = read_csv_text(TABLE2, name="table2")
    result = Renuver([parse_rfd(text) for text in RFDS]).impute(relation)
    return to_csv_text(result.relation), [
        checks.outcome_dict(outcome) for outcome in result.report.outcomes
    ]


def cold_check(output):
    text, outcomes = output
    before = checks.Table.from_csv(TABLE2)
    checks.check_cells(before, checks.Table.from_csv(text, before.kinds),
                       outcomes)


def planted_value(output):
    """Rewrite one imputed cell and its reported value consistently, so
    only the donor re-check can notice."""
    text, outcomes = output
    table = checks.Table.from_csv(text)
    imputed = next(o for o in outcomes if o["status"] == "imputed")
    column = table.header.index(imputed["attribute"])
    table.rows[imputed["row"]][column] = "Nowhere Town"
    tampered = dict(imputed, value="Nowhere Town")
    others = [o for o in outcomes if o is not imputed]
    lines = [",".join(table.header)] + [",".join(row) for row in table.rows]
    return "\n".join(lines) + "\n", others + [tampered]


def test_untampered_cold_output_passes():
    tally = Tally()
    run_op(tally, 4, impute_table2, cold_check)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_planted_wrong_imputed_value_is_a_failed_operation():
    tally = Tally()
    run_op(tally, 4, lambda: planted_value(impute_table2()), cold_check)
    assert (tally.attempted, tally.failed, tally.wrong_outputs) == (1, 1, 1)
    assert "donor" in tally.errors[0]


def test_changed_present_cell_is_caught():
    text, outcomes = impute_table2()
    with pytest.raises(CheckFailed, match="present cell"):
        cold_check((text.replace("Granita", "Granite"), outcomes))


def store_tables():
    header = "Name,City,Phone,Type,Class\n"
    rows = TABLE2.splitlines()[1:]
    previous = checks.Table.from_csv(header + "\n".join(rows[:4]) + "\n")
    batch = checks.Table.from_csv(header + "\n".join(rows[4:]) + "\n")
    return previous, batch, header + "\n".join(rows) + "\n"


def test_store_growth_passes():
    previous, batch, store = store_tables()
    tally = Tally()
    run_op(tally, 0, lambda: store, lambda text: checks.check_store_growth(
        previous, batch, checks.Table.from_csv(text)))
    assert (tally.attempted, tally.failed) == (1, 0)


def test_dropped_store_row_is_a_failed_operation():
    previous, batch, store = store_tables()
    lines = store.splitlines()
    dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
    tally = Tally()
    run_op(tally, 0, lambda: dropped, lambda text: checks.check_store_growth(
        previous, batch, checks.Table.from_csv(text)))
    assert (tally.attempted, tally.failed, tally.wrong_outputs) == (1, 1, 1)
    assert "row count" in tally.errors[0]


def test_violated_rfd_is_caught():
    table = checks.Table.from_csv(TABLE2)
    checks.check_rfds_hold(table, ["Phone(<=1) -> Class(<=0)"],
                           pairs=21, seed=0)
    with pytest.raises(CheckFailed, match="violated"):
        checks.check_rfds_hold(table, ["Class(<=0) -> City(<=0)"],
                               pairs=21, seed=0)


def test_sampled_check():
    checks.check_sampled(20_000, False, 20_000)
    with pytest.raises(CheckFailed):
        checks.check_sampled(20_000, True, 20_000)


def test_textbook_levenshtein():
    assert checks.levenshtein("kitten", "sitting") == 3
    assert checks.levenshtein("", "abc") == 3
    assert checks.levenshtein("same", "same") == 0


def test_tail_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 41)]
    assert tail(values) == 30.0
    assert tail(values[:39]) == 39.0


def test_benchmark_json_lists_every_per_layer_metric():
    from layers import PER_LAYER

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]
    ] == list(PER_LAYER)
