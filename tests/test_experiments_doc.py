"""EXPERIMENTS.md quotes the recorded benchmark tables.

The Fig. 11 and Fig. 13 sections of EXPERIMENTS.md give measured
ranges.  These tests derive the same ranges from the tables the
benchmarks write (``benchmarks/results/fig11.txt`` and ``fig13.txt``),
at the precision the prose prints, so a benchmark re-run that moves a
number fails here until the prose follows.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

#: Fig. 11's scheme rows in EXPERIMENTS.md -> the results table's columns.
FIG11_SCHEMES = {
    "SW Logging": "sw_logging",
    "SW Shadow": "sw_shadow",
    "HW Shadow": "hw_shadow",
    "PiCL": "picl",
    "PiCL-L2": "picl_l2",
    "NVOverlay": "nvoverlay",
}
RANGE = re.compile(r"^([\d.]+)–([\d.]+)")


def _results_table(name):
    """``{workload: {column: value}}`` from a results table."""
    lines = (RESULTS / name).read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("workload"))
    columns = lines[header].split()[1:]
    table = {}
    for line in lines[header + 1:]:
        fields = line.split()
        if fields:
            table[fields[0]] = dict(zip(columns, map(float, fields[1:])))
    return table


def _doc_rows(section):
    """The ``| a | b | c |`` rows of one EXPERIMENTS.md section's table."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    body = text.split(f"## {section}", 1)[1].split("\n## ", 1)[0]
    return {
        cells[0]: cells[1:]
        for cells in (
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in body.splitlines()
            if line.startswith("|") and not line.startswith("|---")
        )
    }


def _printed(value, like):
    """``value`` at the number of decimals ``like`` is printed with."""
    decimals = len(like.partition(".")[2])
    return f"{value:.{decimals}f}"


def _assert_range(values, quoted):
    low, high = RANGE.match(quoted).groups()
    assert (_printed(min(values), low), _printed(max(values), high)) == (
        low, high
    ), f"quoted {quoted!r}, results read {min(values)}–{max(values)}"


def test_fig11_ranges_match_the_results():
    table = _results_table("fig11.txt")
    rows = _doc_rows("Fig. 11")
    assert set(FIG11_SCHEMES) <= set(rows)
    for scheme, column in FIG11_SCHEMES.items():
        _paper, measured = rows[scheme]
        _assert_range([row[column] for row in table.values()], measured)


def test_fig13_ranges_match_the_results():
    table = {w: row["master_table_pct"] for w, row in _results_table("fig13.txt").items()}
    rows = _doc_rows("Fig. 13")
    outlier, value = rows["outlier"][1].rstrip("%").split()
    assert max(table, key=table.get) == outlier
    assert _printed(table[outlier], value) == value
    typical = [pct for workload, pct in table.items() if workload != outlier]
    _assert_range(typical, rows["typical workloads"][1])
