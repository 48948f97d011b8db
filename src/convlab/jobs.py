"""A suite's independent jobs on every CPU the run may use.

run_jobs takes (name, zero-argument callable) pairs in serial order and
runs them on W = min(usable_cpus(), len(jobs)) workers: worker k runs
jobs[k::W], the calling process is worker 0, and each other worker is one
os.fork() child.  Fork, not a process pool: it needs no multiprocessing
import and no manager thread, the jobs' closures (and a test's
monkeypatches) reach the children without pickling, and the parent keeps
computing.  Each job draws from its own seed-keyed substreams (rand.py)
and writes its own files, so the results, the files and their digests do
not depend on W.
"""

from __future__ import annotations

import os
import sys
import time

from .framework import WorkerError


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 without sched_getaffinity (not
    Linux), or while the process runs a second thread, a Python thread or a
    native one such as a BLAS pool's.  A forked child holds only the thread
    that forked it, and each child's own BLAS pool would compete for the
    same CPUs (a predsel run took 7 times as long with two-thread pools)."""
    try:
        alone = hasattr(os, "sched_getaffinity") and len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc to count threads in
        alone = False
    return len(os.sched_getaffinity(0)) if alone else 1


def _work(jobs: list, worker: int, workers: int) -> list:
    """Run jobs[worker::workers] in order up to the first that raises: one
    (index, worker, ok, result or exception, seconds) per job run."""
    done = []
    for i in range(worker, len(jobs), workers):
        start = time.perf_counter()
        try:
            ok, value = True, jobs[i][1]()
        except Exception as exc:
            ok, value = False, exc
        done.append((i, worker, ok, value, time.perf_counter() - start))
        if not ok:
            break
    return done


def run_jobs(out, suite: str, jobs: list) -> list:
    """The results of `jobs`, (name, zero-argument callable) pairs in serial
    order, in that order.  A child writes its files through `out`, the run's
    cli.Outputs, and pickles its results and the new digests down a pipe; the
    parent merges the digests and logs each job in out.jobs under `suite`.
    The first job in serial order that raised, or whose worker died
    (WorkerError), raises its error.  Every child is reaped on every path."""
    workers = min(usable_cpus(), len(jobs))
    local, children, lost, outcomes = [0], [], {}, [None] * len(jobs)
    if workers > 1:
        import pickle
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this process runs the rest
                os.close(read)
                os.close(write)
                local += range(worker, workers)
                break
            if pid == 0:
                _child(out, jobs, worker, workers, write)
            os.close(write)
            children.append((worker, pid, open(read, "rb")))
        for worker in local:
            for outcome in _work(jobs, worker, workers):
                outcomes[outcome[0]] = outcome
        while children:
            worker, pid, pipe = children[0]
            report = pipe.read()  # before the wait: a report can outgrow the pipe's buffer
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipe.close()
            children.pop(0)
            if code == 0:
                done, digests = pickle.loads(report)
                for outcome in done:
                    outcomes[outcome[0]] = outcome
                out.digests.update(digests)
            else:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                names = ", ".join(name for name, _ in jobs[worker::workers])
                lost[worker] = WorkerError(f"the {suite} worker {worker} ({names}) {how} "
                                           f"before it reported")
    finally:
        if children:  # cut short by an error or an interrupt
            import signal

            for _, pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            raise lost[i % workers]
        if not outcome[2]:
            raise outcome[3]
    out.workers = max(out.workers, workers)
    out.jobs += [{"suite": suite, "job": name, "worker": worker, "seconds": round(seconds, 6)}
                 for (name, _), (_, worker, _, _, seconds) in zip(jobs, outcomes)]
    return [outcome[3] for outcome in outcomes]


def _child(out, jobs: list, worker: int, workers: int, write: int) -> None:
    """Worker `worker` of run_jobs in a forked child: run its jobs, send
    (outcomes, the digests of the files they wrote) down `write`, and end in
    os._exit, which runs none of the parent's cleanup and flushes none of its
    buffers."""
    import pickle

    code = 1
    try:
        known = set(out.digests)
        done = _work(jobs, worker, workers)
        if not done[-1][2]:  # the child's frames, which the parent's traceback lacks
            import traceback

            exc = done[-1][3]
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             "".join(traceback.format_exception(exc)).rstrip()]
        report = pickle.dumps((done, {k: v for k, v in out.digests.items() if k not in known}))
        with open(write, "wb") as pipe:
            pipe.write(report)
        code = 0
    except Exception:  # reported as a WorkerError; the cause goes to stderr
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
