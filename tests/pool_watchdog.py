"""A time bound for tests that start a worker process pool.

pytest-timeout is not a dependency, so a process-pool deadlock would
otherwise stall the whole suite.  Every tier-1 test that fans out
through ``ExperimentRunner.sweep(max_workers > 1)`` makes that call
through :func:`with_watchdog`.
"""

import multiprocessing
import threading

import pytest

#: Upper bound on a pool test that normally takes seconds.
POOL_WATCHDOG_SECONDS = 120.0


def with_watchdog(call, seconds=POOL_WATCHDOG_SECONDS):
    """Run ``call`` on a helper thread; fail the test if it hangs.

    On timeout the pool's worker processes are terminated (which breaks
    the pool and lets the helper thread unwind) and the test fails with
    a message.  Otherwise ``call``'s value is returned, or its
    exception re-raised on the test thread.
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised on the test thread
            outcome["error"] = error

    thread = threading.Thread(target=target, name="pool-watchdog",
                              daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        for child in multiprocessing.active_children():
            child.terminate()
        pytest.fail(f"process-pool call still running after {seconds:.0f}s;"
                    f" its workers were terminated (pool hang)")
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")
