"""The package names the benchmark tracer (bench/tracing.py) relies on.

The tracer wraps package functions from outside by module and attribute
name and reads each kernel's first argument as an (n, k) array, so a
renamed kernel or a changed calling convention would otherwise surface
only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import releq.cli  # noqa: F401  (imports every module the tracer patches)
from releq import _kernels

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


N, K = 5, 3
MASSES = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
ASQ = np.array([1.0, 1.0, 0.0])
# the call of each kernel on one (N, K) configuration and its result shape
KERNEL_CALLS = {
    "residual_stack": ((MASSES, ASQ, -1.5), (N, K)),
    "jacobian_dense": ((MASSES, ASQ, -1.5), (N * K, N * K)),
    "accel": ((MASSES, -1.5), (N, K)),
    "min_pair_distance": ((), ()),
    "pair_distances": ((), (N, N)),
}


def _points():
    rng = np.random.default_rng(5)
    return _kernels.as_input(rng.normal(size=(N, K)))


def test_traced_targets_exist(tracing):
    for _, module, attr in tracing.SPANS + tracing.COUNTS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr}"


def test_kernels_take_one_configuration(tracing):
    assert set(tracing.KERNELS) == set(KERNEL_CALLS)
    pts = _points()
    for name in tracing.KERNELS:
        extra, shape = KERNEL_CALLS[name]
        result = getattr(_kernels, name)(pts, *extra)
        assert np.shape(result) == shape, name
        assert np.all(np.isfinite(result)), name
        tracing.kernel_cost(name, N, K)


def test_each_kernel_call_traced_once(tracing):
    # no kernel may reach another traced kernel through its public name
    pts = _points()
    with tracing.Tracer() as tracer:
        for name in tracing.KERNELS:
            getattr(_kernels, name)(pts, *KERNEL_CALLS[name][0])
    for name in tracing.KERNELS:
        assert tracer.agg[f"kernels.{name}"].calls == 1, name
    assert tracer.flop > 0.0
