"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from calibrate import REF_PROBE_S, Probe, normalise
from conftest import HERE, REPO
from workloads import WORKLOADS, make_inputs, run

CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())


def _names(section):
    return {metric["name"] for metric in CONTRACT[section]}


def _run_cli(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--scale",
            "tiny",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_contract_names_every_workload():
    assert {w["name"] for w in CONTRACT["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _names(section)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _attributes():
    from repro.core import base, srda
    from repro.linalg import kernels, operators, sparse
    from repro.parallel import sharded
    from repro.serving import batching, server

    owners = [
        kernels,
        srda,
        sparse.CSRMatrix,
        operators.LinearOperator,
        sharded.ShardedOperator,
        srda.SRDA,
        base.LinearEmbedder,
        batching.BatchingPredictor,
        server.ServingApp,
    ]
    return {
        (repr(owner), name): value
        for owner in owners
        for name, value in vars(owner).items()
    }


def test_traced_run_restores_every_wrapper():
    before = _attributes()
    run(WORKLOADS["text-f32-jobs2"], 1, 0.5, True, "tiny")
    after = _attributes()
    # copy.deepcopy may cache ``__slotnames__`` on a class; nothing else
    # may appear, and every attribute must be the original object.
    assert {name for _, name in after.keys() - before.keys()} <= {"__slotnames__"}
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed


@pytest.mark.parametrize("workload", ["text-f64", "serve-isolet"])
def test_counts_repeat_for_one_seed(workload):
    keys = ("lsqr.iterations", "kernels.calls", "registry.versions")
    first, second = (
        run(WORKLOADS[workload], 5, 0.5, True, "tiny").metrics for _ in range(2)
    )
    assert [first[k] for k in keys] == [second[k] for k in keys]
    assert first["lsqr.iterations"][0] > 0


def test_seed_changes_inputs():
    spec = WORKLOADS["text-f64"]
    a, b, c = (make_inputs(spec, seed, "tiny") for seed in (1, 1, 2))
    assert np.array_equal(a.y_train, b.y_train)
    assert np.array_equal(a.served, b.served)
    assert not np.array_equal(a.y_train, c.y_train)
    isolet = WORKLOADS["serve-isolet"]
    d, e = (make_inputs(isolet, seed, "tiny") for seed in (1, 2))
    assert not np.array_equal(d.y_stream, e.y_stream)


def test_probe_normalises_and_joins_its_threads():
    before = threading.active_count()
    probe = Probe(threads=2)
    assert probe.measure() > 0
    assert threading.active_count() == before
    assert normalise(3.0, [REF_PROBE_S, REF_PROBE_S]) == pytest.approx(3.0)
    assert normalise(3.0, [REF_PROBE_S, 3 * REF_PROBE_S]) == pytest.approx(1.5)
