"""Shared Monte-Carlo execution engine for the experiment layer.

Every figure experiment is, at heart, a bag of independent trials:
*(sweep point, repetition) -> per-algorithm metrics*.  This module owns
how those trials execute, so the figure modules only describe **what**
one trial computes:

* :func:`run_trials` — execute a trial function over a task list,
  serially or on a :class:`~concurrent.futures.ProcessPoolExecutor`,
  returning results **in task order** regardless of completion order.
  It is the one trial path of every sweep; each trial receives only its
  own task payload.
* :func:`resolve_jobs` — turn a ``--jobs`` value (``0``/``None`` means
  auto) into a worker count.

Determinism contract
--------------------
A trial function must derive all randomness from its task payload
(typically via :func:`repro.seeding.trial_rng`), never from shared
state.  Under that contract ``run_trials(fn, tasks, jobs=k)`` returns
bit-identical results for every ``k`` — the engine reduces by task
index, not completion order — which is what makes
``runall --jobs 4`` reproduce ``--jobs 1`` exactly.

Serial fallback
---------------
Process pools need picklable trial functions and payloads.  When the
function or first task fails a pickling probe — closures, locally
defined functions, live generators in the payload — or when the
platform refuses to start worker processes, the engine degrades to the
serial path, which computes the identical result (only slower).
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.exceptions import ConfigurationError

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Upper bound on auto-detected workers — beyond this the per-process
#: NumPy import cost outweighs the trial work at experiment scale.
MAX_AUTO_JOBS = 16


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` selects CPU count."""
    if jobs is None or jobs == 0:
        return max(1, min(os.cpu_count() or 1, MAX_AUTO_JOBS))
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs!r}")
    return int(jobs)


def _is_picklable(fn: Callable, probe_task: object) -> bool:
    try:
        pickle.dumps((fn, probe_task))
        return True
    except Exception:
        return False


def compute_chunksize(num_tasks: int, workers: int) -> int:
    """Tasks per pool submission: ~4 chunks per worker, at least 1.

    Submitting chunks instead of single trials amortizes the
    per-future pickling and IPC cost when tasks are small and
    numerous; four chunks per worker keeps the pool load-balanced when
    trial durations vary.  Chunking is a transport detail only — the
    by-index reduction makes results byte-identical at any chunk size.
    """
    if num_tasks <= 0 or workers <= 0:
        return 1
    return max(1, -(-num_tasks // (workers * 4)))


def _run_chunk(fn: Callable[[Task], Result], chunk: Sequence[Task]) -> List[Result]:
    """Worker-side driver: run one chunk of tasks in order."""
    return [fn(task) for task in chunk]


def run_trials(
    fn: Callable[[Task], Result],
    tasks: Sequence[Task],
    jobs: Optional[int] = 1,
) -> List[Result]:
    """Run ``fn`` over ``tasks``; results come back in task order.

    Parameters
    ----------
    fn:
        The trial function.  For parallel execution it must be a
        module-level callable and derive randomness only from its task.
    tasks:
        Trial payloads; each must be picklable for parallel execution.
    jobs:
        Worker processes.  ``1`` runs serially in-process; ``0`` or
        ``None`` auto-detects; any value degrades gracefully to serial
        when the pool cannot be used.

    Raises
    ------
    Whatever ``fn`` raises — trial exceptions propagate unchanged on
    both paths (they are not converted into fallbacks).
    """
    task_list = list(tasks)
    workers = resolve_jobs(jobs)
    if task_list:
        workers = min(workers, len(task_list))
    if workers <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]
    if not _is_picklable(fn, task_list[0]):
        return [fn(task) for task in task_list]
    try:
        executor = ProcessPoolExecutor(max_workers=workers)
    except (OSError, ValueError, PermissionError):
        # Platforms without working process pools (no /dev/shm, seccomp
        # sandboxes, ...) still get the identical serial computation.
        return [fn(task) for task in task_list]
    try:
        with executor:
            # Chunked submit + index map rather than executor.map: the
            # explicit slot table makes the order-independence of the
            # reduction obvious — results land by task index,
            # completion order is irrelevant.
            chunksize = compute_chunksize(len(task_list), workers)
            chunks = [
                task_list[start : start + chunksize]
                for start in range(0, len(task_list), chunksize)
            ]
            futures = {
                executor.submit(_run_chunk, fn, chunk): index
                for index, chunk in enumerate(chunks)
            }
            results: List[Optional[Result]] = [None] * len(task_list)
            for future in futures:
                start = futures[future] * chunksize
                chunk_results = future.result()
                results[start : start + len(chunk_results)] = chunk_results
            return results  # type: ignore[return-value]
    except BrokenProcessPool:
        # Workers were killed (OOM, sandbox) — recompute serially.
        return [fn(task) for task in task_list]
