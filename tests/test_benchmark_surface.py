"""The library names the benchmark in perfbench/ wraps and calls.

perfbench patches functions where the calling module looks them up; a name
that disappears from the library drops its per-layer metric from the
benchmark's result line. These tests read perfbench/ and change nothing
there.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_exists():
    assert spans.Tracer(layers.targets()).absent == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_op_runs(name, tmp_path):
    workloads.WORKLOADS[name].setup_op(1, tmp_path)
