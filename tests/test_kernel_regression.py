"""Tier-1 guard: the fused kernel path must allocate fewer tensor
temporaries than the composed reference on the train-step microbench.

Runs the same harness as ``make bench-kernels`` on miniature shapes.  The
wall-clock comparison (fused not slower than composed) lives in
``benchmarks/test_kernels.py`` under the ``bench`` marker, where timing
noise cannot fail tier-1."""

from repro.utils import bench


def test_fused_train_step_allocates_fewer_tensors():
    result = bench.bench_train_step(bench.SMOKE_SHAPES, repeats=1, warmup=1)
    # Fusing exists to cut temporaries: the fused step must allocate fewer.
    assert result["fused"]["tensor_allocs"] < result["composed"]["tensor_allocs"]


def test_bench_results_reproducible_structure():
    result = bench.bench_train_step(bench.SMOKE_SHAPES, repeats=1, warmup=1)
    assert set(result) == {"composed", "fused", "speedup", "alloc_ratio"}
    for path in ("composed", "fused"):
        assert result[path]["wall_time_s"] > 0
        assert result[path]["tensor_allocs"] > 0
