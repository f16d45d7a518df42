"""The library names the benchmark in perfbench/ wraps and calls.

perfbench patches functions where the calling module looks them up; a name
that disappears from the library drops its per-layer metric from the
benchmark's result line. These tests read perfbench/ and change nothing
there.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from polarbounds import extremal

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_exists():
    assert spans.Tracer(layers.targets()).absent == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_op_runs(name, tmp_path):
    workloads.WORKLOADS[name].setup_op(1, tmp_path)


WITNESS_SPANS = ("extremal.make_witness", "extremal.verify_witness",
                 "linalg.polar_decompose", "linalg.unitary_completion",
                 "fileio.write_matrix_text", "fileio.read_matrix_text",
                 "numpy.linalg.svd", "numpy.linalg.qr")


def test_witness_op_calls_every_name_its_metrics_read():
    # a metric whose name is never called reads 0 rather than dropping out
    pair = workloads.criterion3_pairs(np.random.default_rng(1), 1)[0]
    tracer = spans.Tracer(layers.targets())
    with tracer:
        _, stats = tracer.run_pass(
            lambda: [workloads.Witness._op(pair, b) for b in extremal.BOUND_IDS])
    assert [name for name in WITNESS_SPANS if stats.calls[name] == 0] == []


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} on the result line")


@pytest.mark.parametrize("workload", ["campaign", "oracle", "bounds-report"])
def test_traced_run_ends_with_every_layer_metric(workload, tmp_path, monkeypatch, capsys):
    # a run can exit 0 while a renamed library name silently drops the
    # metrics that read it from its last line, the one result line
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")    # run.py sets them on import
    import run
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    result = json.loads(last, parse_constant=_refuse_constant)
    assert result["correct"] is True
    names = set(layers.PER_LAYER) | {"trace.overhead_frac", "cli.scale_probe_failures"}
    assert len(names) == 29
    assert set(result["metrics"]) == names
