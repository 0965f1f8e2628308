"""Where desksense works in parallel: one ordered map on
n = min(cpus(), samples // floor) threads, or in the calling thread if n < 2."""
import os
from concurrent.futures import ThreadPoolExecutor

# 2 vCPUs, serial vs 2 threads (medians of 3 runs): subcarrier_variances
# 1.21 vs 2.84 ms at 9,600 x 30 samples, 3.79 vs 4.25 at 36,000 x 30, 72.0
# vs 44.7 at 558,361 x 30; simulate_script 18.4 vs 16.3 ms for 9.6 s, 73.2
# vs 53.7 for 36 s.  This keeps evaluate's 9.6 s traces on one thread.
_MIN_SAMPLES_PER_THREAD = 1 << 18


def cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def threads(samples: int) -> int:
    """Threads thread_map runs tasks covering `samples` samples on, at least 1."""
    return max(1, min(cpus(), samples // _MIN_SAMPLES_PER_THREAD))


def thread_map(fn, tasks, samples: int) -> list:
    """[fn(task) for task in tasks], on a thread per _MIN_SAMPLES_PER_THREAD
    of the samples the tasks cover; no pool outlives the call."""
    n = threads(samples)
    if n == 1:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, tasks))
