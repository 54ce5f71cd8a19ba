"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py

Runs every workload with --small, with tracing off and on, and checks the
printed result against BENCHMARK.json; then checks in process that traced
outputs equal untraced ones and that a wrong oracle shows up as failures.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def bench_env():
    """The environment run.py sets up; bench/ is on sys.path under pytest."""
    import run

    return run.pin_environment()


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "lines": lines[:-1]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = bench(workload, trace)
    res = out["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in out["lines"]), m["name"]
    assert any(line.split()[:2] == ["fail_frac", "0"] for line in out["lines"])
    if not trace:
        for name in ("setup_s", "wall_s", "request_ms_p50", "peak_rss_mb"):
            assert res["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", ["endpoint-certify", "interior-ladder",
                                      "predual-algebra"])
def test_traced_outputs_equal_untraced(workload, bench_env, tmp_path):
    import run
    import tracing
    import workloads

    wl = workloads.build(workload, 5, ROOT, str(tmp_path), bench_env, small=True)
    plain = run.run_pass(wl)
    with tracing.Tracer() as tracer:
        traced = run.run_pass(wl, tracer)
    assert tracer.spans, "no span was recorded"
    for a, b in zip(plain["results"], traced["results"]):
        assert not a.errors and not b.errors
        assert (a.key, a.brackets) == (b.key, b.brackets)


def test_wrong_oracle_raises_fail_frac(bench_env, monkeypatch):
    import run
    import workloads

    # gamma2 doubles, so the known value sqrt(n) becomes a wrong oracle
    hadamard = workloads.sylvester_hadamard
    monkeypatch.setattr(workloads, "sylvester_hadamard", lambda n: 2 * hadamard(n))
    args = run.parse_args(["--workload", "endpoint-certify", "--seed", "5",
                           "--seconds", "0", "--small"])
    res = run.measure(args, bench_env)
    assert res["correct"] is False
    assert 0 < res["failed"] < res["attempted"]


def test_scaling_and_median():
    import reference
    import run

    nominal = reference.NOMINAL_S
    assert reference.scale(1.0, [nominal, nominal]) == 1.0
    # a machine at half speed runs the kernel in twice the nominal time
    assert reference.scale(2.0, [2 * nominal, 2 * nominal, 2 * nominal]) == 1.0
    assert run.hd_median([3.0]) == 3.0
    assert abs(run.hd_median([1.0, 2.0, 3.0]) - 2.0) < 1e-12
    # a far outlier moves the estimate less than the mean
    assert 2.0 < run.hd_median([1.0, 2.0, 3.0, 100.0]) < 26.5
