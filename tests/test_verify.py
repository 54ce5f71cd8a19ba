import json

import pytest

import herzkit.verify
from herzkit.cli import main
from herzkit.config import RunConfig
from herzkit.core import InputError, ResourceError
from herzkit.verify import SUITES, run_suite


def test_registry_names():
    assert set(SUITES) == {"diagrams", "contractivity", "algebra",
                           "duality", "isometry"}


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite("spectral", RunConfig())


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_passes_at_small_budget(suite):
    reports = run_suite(suite, RunConfig(), trials=3)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert rep.checks


def test_all_returns_every_suite():
    reports = run_suite("all", RunConfig(), n=3, trials=2)
    assert [r.suite for r in reports] == list(SUITES)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("n, error", [(7, ResourceError), (100, ResourceError),
                                      (0, InputError)])
def test_contractivity_checks_its_size_cap_before_any_draw(monkeypatch, capsys, n, error):
    sizes = []

    def refuse(size, *args, **kwargs):  # records the draw instead of making it
        sizes.append(size)
        raise AssertionError(f"drew a {size} x {size} matrix")

    monkeypatch.setattr(herzkit.verify, "random_matrix", refuse)
    with pytest.raises(error):
        run_suite("contractivity", RunConfig(), n=n)
    assert main(["verify", "contractivity", "--n", str(n)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == error.__name__
    assert sizes == []
