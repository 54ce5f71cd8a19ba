import json

import numpy as np
import pytest

import herzkit.core
import herzkit.verify
from herzkit.cli import main
from herzkit.core import MAX_COUNT, InputError, ResourceError, schatten_norm
from herzkit.verify import SUITES, run_suite


def test_registry_names():
    assert set(SUITES) == {"diagrams", "contractivity", "algebra",
                           "duality", "isometry"}


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite("spectral")


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_passes_at_small_budget(suite):
    reports = run_suite(suite, trials=3)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert rep.checks


def test_all_returns_every_suite():
    reports = run_suite("all", n=3, trials=2)
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
        run_suite("contractivity", n=n)
    assert main(["verify", "contractivity", "--n", str(n)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == error.__name__
    assert sizes == []


@pytest.mark.parametrize("suite", ["diagrams", "isometry"])
def test_suites_check_the_size_before_any_draw(monkeypatch, suite):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking the size")

    monkeypatch.setattr(herzkit.verify, "random_matrix", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ResourceError, match="n <= 64"):
        run_suite(suite, n=2 ** 65)
    with pytest.raises(ResourceError, match="n <= 64"):
        run_suite(suite, n=65)
    for kwargs, error in (({"n": 0}, InputError), ({"seed": -1}, InputError),
                          ({"trials": MAX_COUNT + 1}, ResourceError)):
        with pytest.raises(error, match=next(iter(kwargs))):
            run_suite(suite, **kwargs)


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_are_refused(trials):
    with pytest.raises(InputError):
        run_suite("all", trials=trials)


def test_contractivity_draws_each_trial_once(monkeypatch):
    calls = []
    draw = herzkit.core.random_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    # the stacks come from core.gaussians, which draws through core.random_matrix
    monkeypatch.setattr(herzkit.core, "random_matrix", counted)
    (report,) = run_suite("contractivity")
    assert report.passed
    # 12 trials: two draws for adjointness and averaging, one for each other check
    assert len(calls) == 96


def test_failing_splice_check_carries_a_replayable_witness(monkeypatch):
    monkeypatch.setattr(herzkit.verify, "column_splice", lambda X: 2.0 * X)
    (report,) = run_suite("contractivity", trials=3)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [f"splice_contractivity_p_{p}"
                                        for p in ("1", "1.5", "2", "3", "inf")]
    for c, p in zip(failed, (1.0, 1.5, 2.0, 3.0, None)):
        W = c.details["witness"]
        assert c.details["excess"] == schatten_norm(2.0 * W, p) - schatten_norm(W, p)
