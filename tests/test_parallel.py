import collections
import sys
import threading
import time

import pytest

from sphereuni import _parallel
from sphereuni.experiments import ExperimentPlan, run_rejection_experiment
from sphereuni.sampling import AlternativeModel


def test_thread_map_runs_each_item_once_in_order_under_contention():
    calls = collections.Counter()
    started = []
    threads = set()
    in_use = set()
    clashes = []
    lock = threading.Lock()

    def fn(x, workspace):
        with lock:
            if workspace in in_use:
                clashes.append(workspace)
            in_use.add(workspace)
            calls[x] += 1
            started.append(x)
            threads.add(threading.get_ident())
        time.sleep(0)  # hand the interpreter to another worker mid-call
        with lock:
            in_use.discard(workspace)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _parallel.thread_map(fn, range(2000), list(range(8))) is None
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 2000 and set(calls.values()) == {1}
    # items start in order: when item x starts, each earlier item not yet seen is
    # held by one of the 7 other workers
    assert max(x - k for k, x in enumerate(started)) <= 7
    assert not clashes  # no workspace was held by two calls at once
    assert len(threads) > 1


def test_thread_map_with_one_workspace_runs_in_the_caller():
    caller = threading.get_ident()
    calls = []

    def fn(x, workspace):
        calls.append((x, workspace, threading.get_ident()))

    assert _parallel.thread_map(fn, [1, 2], ["w"]) is None
    assert calls == [(1, "w", caller), (2, "w", caller)]


def test_thread_map_with_one_workspace_stops_at_the_first_failure():
    ran = []

    def fn(x, workspace):
        ran.append(x)
        if x == 3:
            raise KeyError("item 3")
        return x

    with pytest.raises(KeyError, match="item 3"):
        _parallel.thread_map(fn, range(10), ["w"])
    assert ran == [0, 1, 2, 3]  # items 4 to 9 never ran


def test_thread_map_stops_its_threads_when_one_cannot_start(monkeypatch):
    real = threading.Thread
    started = []

    class Flaky(real):
        def start(self):
            if len(started) == 2:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    ran = []

    def fn(x, workspace):
        ran.append(x)
        time.sleep(0.001)
        return x

    monkeypatch.setattr(_parallel.threading, "Thread", Flaky)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _parallel.thread_map(fn, range(1000), list(range(5)))
    assert len(started) == 2
    assert not any(t.is_alive() for t in started)
    assert len(ran) < 1000


def test_blas_pin_restores_the_count_when_its_block_raises():
    calls = _parallel._openblas()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS thread calls are not available")
    get, set_ = calls
    before = get()
    try:
        set_(2)
        with pytest.raises(KeyError):
            with _parallel.blas_pin:
                with _parallel.blas_pin:  # nested: the outer block restores
                    assert get() == 1
                assert get() == 1
                raise KeyError("synthetic")
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("threads", [2.5, True, "2", None], ids=["float", "bool", "str", "none"])
def test_resolve_workers_applies_the_integer_rule(threads):
    with pytest.raises(ValueError, match=f"^threads must be an integer, got {threads!r}$"):
        _parallel.resolve_workers(threads)


def test_resolve_workers_never_exceeds_eight_per_cpu(monkeypatch):
    monkeypatch.setattr(_parallel, "_available_cpus", lambda: 2)
    assert _parallel.resolve_workers(100_000) == 16
    assert _parallel.resolve_workers(100_000, items=100_000) == 16
    assert _parallel.resolve_workers(100_000, items=10) == 10
    assert _parallel.resolve_workers(0, items=100_000) == 2
    assert _parallel.resolve_workers(5) == 5


def test_engine_starts_at_most_eight_threads_per_cpu(monkeypatch):
    monkeypatch.setattr(_parallel, "_available_cpus", lambda: 1)
    started = []
    real = threading.Thread

    class Counted(real):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_parallel.threading, "Thread", Counted)
    # 25 blocks of 8 replications
    plan = ExperimentPlan(n=3, p=2, model=AlternativeModel.uniform(), replications=200,
                          master_seed=1)
    result = run_rejection_experiment(plan, threads=100_000)
    assert len(started) == 7  # 8 workers, the calling thread among them
    assert result == run_rejection_experiment(plan, threads=1)
