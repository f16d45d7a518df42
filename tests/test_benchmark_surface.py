"""The library names the benchmark in perfbench/ wraps and calls.

perfbench patches functions where the calling module looks them up; a name
that disappears from the library drops its per-layer metric from the
benchmark's result line. These tests read perfbench/ and change nothing
there.
"""

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
