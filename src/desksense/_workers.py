"""Where desksense works in parallel: two ordered maps, each on
n = min(cpus(), work // floor) workers, or in the calling thread if n < 2."""
import multiprocessing
import os
import signal
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

_MIN_TASKS_PER_FORK = 8  # below this, starting and stopping a worker costs what it saves
# 2 vCPUs, serial vs 2 threads (medians of 3 runs): subcarrier_variances
# 1.21 vs 2.84 ms at 9,600 x 30 samples, 3.79 vs 4.25 at 36,000 x 30, 72.0
# vs 44.7 at 558,361 x 30; simulate_script 18.4 vs 16.3 ms for 9.6 s, 73.2
# vs 53.7 for 36 s.  This keeps evaluate's 9.6 s traces on one thread.
_MIN_SAMPLES_PER_THREAD = 1 << 18
_FORK = "fork" in multiprocessing.get_all_start_methods()


def cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def thread_map(fn, tasks, samples: int) -> list:
    """[fn(task) for task in tasks], on a thread per _MIN_SAMPLES_PER_THREAD
    of the samples the tasks cover; no pool outlives the call, so fork_map forks."""
    n = min(cpus(), samples // _MIN_SAMPLES_PER_THREAD)
    if n <= 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, tasks))


def _serve(conn, inherited, fn, tasks) -> None:
    """A worker process: answers each of tasks in order on conn with (True,
    fn(*task)), or with (False, (the exception, its traceback)) and stops.
    It first closes the caller's pipe ends it inherited, so that once the
    caller is gone a send fails and the worker exits."""
    for end in inherited:
        end.close()
    try:
        for task in tasks:
            try:
                result = fn(*task)
            except Exception as exc:
                conn.send((False, (exc, traceback.format_exc())))
                return
            conn.send((True, result))
    except ConnectionError:   # the caller is gone
        pass


def fork_map(fn, tasks: list):
    """fn(*task) for each of tasks, yielded in task order: worker k of n
    forked processes runs tasks[k::n], inherited unpickled, and blocks on
    its pipe until each result is taken, so the caller holds one result at a
    time.  One CPU, too few tasks for two workers, no fork or other live
    threads (a fork could copy a lock one of them holds) run the tasks here.
    An error, an interrupt or closing the generator stops the workers."""
    n = min(cpus(), len(tasks) // _MIN_TASKS_PER_FORK)
    if n <= 1 or not _FORK or threading.active_count() > 1:
        for task in tasks:
            yield fn(*task)
        return
    workers = []   # (process, the parent's end of its pipe)
    try:
        # SIGINT, which an at-fork hook drops, is held over the forks and in the workers
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for k in range(n):   # in the try: a failed fork stops the workers started
                conn, child = multiprocessing.Pipe()
                inherited = [end for _, end in workers] + [conn]
                process = multiprocessing.get_context("fork").Process(
                    target=_serve, args=(child, inherited, fn, tasks[k::n]), daemon=True)
                process.start()
                workers.append((process, conn))
                child.close()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)   # raises a Ctrl-C held
        for i in range(len(tasks)):
            process, conn = workers[i % n]
            try:
                ok, value = conn.recv()
            except EOFError:
                process.join()
                raise ChildProcessError(
                    f"worker process {process.pid} exited with code {process.exitcode}"
                ) from None
            if not ok:
                exc, where = value
                raise exc from RuntimeError(f"in worker process {process.pid}:\n{where}")
            yield value
    finally:
        for process, conn in workers:
            process.kill()   # SIGKILL: no handler inherited from the parent delays it
            process.join()
            conn.close()
