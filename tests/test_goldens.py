"""Every entry of the three goldens in tests/data, regenerated by
tests/goldens.py: 180 AC/FTC report digests and 45 constraint-row digests,
which hold on every BLAS kernel, and twelve seeded solves (random, parallel,
duplicate-curve, whose p = 1 solve takes the ridge path, and 3-D families at
p = 1, 1.5, 2 and 3), which hold on the kernel they were recorded on. A
change to the checks, the assembly or the solver that moves any of them
moves a report."""

import json

import pytest

import goldens
from goldens import DATA, DIGESTS, SOLVES

STORED = json.loads((DATA / SOLVES).read_text())


@pytest.mark.parametrize("file", DIGESTS)
def test_digests_are_bit_identical(file):
    golden = json.loads((DATA / file).read_text())["digests"]
    digests = {name: run() for name, run in DIGESTS[file]()}
    assert digests.keys() == golden.keys()
    assert sorted(name for name in golden if digests[name] != golden[name]) == []


@pytest.mark.parametrize("family", STORED["families"], ids=[goldens.solve_id(i, f) for i, f in enumerate(STORED["families"])])
def test_solve_outputs_are_bit_identical(family):
    recorded = {key: family[key] for key in ("value", "dual_value", "gap", "iterations", "converged", "rho_sha256")}
    assert goldens.solve_outputs(family, STORED["tol"]) == recorded


@pytest.mark.parametrize("file", [*DIGESTS, SOLVES])
def test_committed_text_is_the_harness_serialization(file):
    # so a regeneration with nothing moved rewrites the same bytes
    committed = (DATA / file).read_text()
    assert goldens.text(file, json.loads(committed)) == committed


def test_curve_battery_crosses_both_checks_grids_norms_shapes_and_sizes():
    fields = [name.split("-") for name, _ in goldens.curve_check_cases()]
    assert [len({f[i] for f in fields}) for i in range(5)] == [2, 2, 3, 5, 3]
    assert len(fields) == 2 * 2 * 3 * 5 * 3


def test_cell_length_battery_crosses_grids_shapes_and_family_sizes():
    fields = [name.split("-") for name, _ in goldens.cell_length_cases()]
    assert [sorted({f[i] for f in fields}) for i in range(3)] == [
        ["1d", "2d", "3d"],
        ["boundary", "centres", "faces", "random", "repeats"],
        ["1", "40", "5"],
    ]
    assert len(fields) == 3 * 5 * 3
