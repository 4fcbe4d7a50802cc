"""Checked-in density grids replayed from their own recorded arguments.

Each fixture under data/ carries the argv that produced it on its first
line. Regenerating from that argv and comparing parsed values (not bytes)
pins the numerical behavior while tolerating last-ulp libm drift across
platforms.
"""

import json
import math
from pathlib import Path

import pytest

from hyplevy.cli import main

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("*.csv"))


def parse_table(path: Path) -> tuple[dict, list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# provenance: ")
    prov = json.loads(lines[0][len("# provenance: ") :])
    header = lines[1].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[2:]]
    return prov, header, rows


def swap_out(argv: list[str], new_out: str) -> list[str]:
    argv = list(argv)
    i = argv.index("--out")
    argv[i + 1] = new_out
    return argv


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_replay_reproduces_fixture(fixture, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPLEVY_OUTDIR", str(tmp_path))
    prov, header, rows = parse_table(fixture)

    fresh_path = tmp_path / fixture.name
    assert main(swap_out(prov["argv"], fixture.name)) == 0
    capsys.readouterr()

    _, fresh_header, fresh_rows = parse_table(fresh_path)
    assert fresh_header == header
    assert len(fresh_rows) == len(rows)
    for got, want in zip(fresh_rows, rows):
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-15), (g, w)

    meta = json.loads((fixture.parent / (fixture.name + ".meta.json")).read_text())
    fresh_meta = json.loads((tmp_path / (fixture.name + ".meta.json")).read_text())
    assert set(fresh_meta) == set(meta)
    for key, want in meta.items():
        got = fresh_meta[key]
        if isinstance(want, float):
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15), key
        else:
            assert got == want, key


def test_fixtures_present():
    assert len(FIXTURES) == 5
    assert [p.name for p in FIXTURES] == (
        ["hyperbolic_d7_k5.csv"] + [f"limit_b{b}.csv" for b in (1, 2, 3)] + ["rescaled_d4_k3.csv"]
    )
