"""tools/parity.py's comparison of two trees' fingerprints, on in-memory
digests: no CLI command and no model case runs here."""

import importlib.util
from pathlib import Path

import pytest

from eeglstm.cli import build_parser


@pytest.fixture(scope="module")
def parity():
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("tools_parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = {"model 1 scores N=8": "aa", "file train-m1/results.csv": "bb", "file logs/train-m1.log": "cc"}


def digests(cases=CASES, failed=()):
    return {"cases": dict(cases), "failed": list(failed)}


def test_identical_digests_pass(parity):
    lines, status = parity.compare([("old", digests()), ("new", digests())])
    assert lines == ["parity: identical (3/3 cases equal)"] and status == 0


def test_a_differing_case_is_named(parity):
    lines, status = parity.compare([("old", digests()), ("new", digests({**CASES, "file train-m1/results.csv": "bd"}))])
    assert lines == ["differs: file train-m1/results.csv", "parity: different (2/3 cases equal)"] and status == 1


@pytest.mark.parametrize("holder", ["old", "new"])
def test_a_file_in_one_tree_only_is_named(parity, holder):
    extra = digests({**CASES, "file train-m1/extra.csv": "dd"})
    runs = [("old", extra if holder == "old" else digests()), ("new", extra if holder == "new" else digests())]
    lines, status = parity.compare(runs)
    assert lines == [f"only in {holder}: file train-m1/extra.csv", "parity: different (3/4 cases equal)"]
    assert status == 1


def test_a_command_that_failed_in_both_trees_is_named(parity):
    failed = ["evaluate (exit 1, see logs/evaluate.log)"]
    lines, status = parity.compare([("old", digests(failed=failed)), ("new", digests(failed=failed))])
    assert lines == [
        "failed in old: evaluate (exit 1, see logs/evaluate.log)",
        "failed in new: evaluate (exit 1, see logs/evaluate.log)",
        "parity: failed (3/3 cases equal)",
    ]
    assert status == 1


def test_a_failed_fingerprint_is_named(parity):
    lines, status = parity.compare([("old", digests()), ("new", None)])
    assert lines == ["fingerprinting failed: new", "parity: failed"] and status == 1


def test_every_command_parses_with_relative_paths(parity):
    parser = build_parser()
    for args in parity.COMMANDS.values():
        parser.parse_args(args.split())
        assert not any(arg.startswith("/") for arg in args.split())
