"""Tests of the run length, the seeded inputs and the speed reference.

    python3 -m pytest perfbench/test_workloads.py -q
"""

import speed
import workloads


def _ops(workload, seed, seconds):
    gen = workloads.GENERATORS[workload](seed)
    n = workloads.run_blocks(workload, seconds) * workloads.BLOCK[workload]
    return [next(gen) for _ in range(n)]


def test_a_seed_gives_the_same_operations_every_time():
    for workload in workloads.WORKLOADS:
        assert _ops(workload, 7, 5) == _ops(workload, 7, 5)
        assert _ops(workload, 7, 5) != _ops(workload, 8, 5)


def test_run_length_is_whole_blocks_with_enough_tail_samples():
    for workload in workloads.WORKLOADS:
        for seconds in (0.1, 1, 10, 60):
            n = workloads.run_blocks(workload, seconds) * workloads.BLOCK[workload]
            assert n >= workloads.MIN_OPS
        assert workloads.run_blocks(workload, 60) > workloads.run_blocks(workload, 10)


def test_speed_factor_is_one_at_the_reference_speed():
    assert speed.factor([speed.REF_KERNEL_S] * 3) == 1.0
    assert speed.factor([2 * speed.REF_KERNEL_S, 2 * speed.REF_KERNEL_S]) == 0.5
    times = speed.sample()
    assert len(times) == speed.SAMPLES and all(t > 0 for t in times)
