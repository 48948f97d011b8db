"""A run's independent jobs on every CPU the run may use.

run_jobs takes (suite, name, zero-argument callable) jobs in serial order,
runs them on W = min(usable_cpus(), len(jobs)) workers (worker k runs
jobs[k::W], the calling process is worker 0, and each other worker is one
os.fork() child), and returns their results with its log of the run.  Fork,
not a process pool: it needs no multiprocessing import and no manager
thread, the jobs' closures (and a test's monkeypatches) reach the children
without pickling, and the parent keeps computing.  Each job draws from its
own seed-keyed substreams (rand.py) and writes its own files, so the
results, the files and their digests do not depend on W.
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
            ok, value = True, jobs[i][2]()
        except Exception as exc:
            ok, value = False, exc
        done.append((i, worker, ok, value, time.perf_counter() - start))
        if not ok:
            break
    return done


def run_jobs(digests: dict, jobs: list) -> tuple:
    """(results, log, peak) of `jobs`, (suite, name, zero-argument callable) triples
    in serial order: the results in that order; the log, one {suite, job, worker,
    seconds} per job in that order; and the largest peak resident set of the
    reaped children in MiB (ru_maxrss counts KiB on Linux), None if none was forked.  `digests` is the dict in
    which the jobs' writers record each file's digest: a child pickles its
    results and its new digests down a pipe, and the parent adds those digests
    to it.  The first job in serial order that raised, or whose worker died
    (WorkerError), raises its error.  Every child is reaped on every path."""
    workers = min(usable_cpus(), len(jobs))
    local, children, lost, outcomes, peak = [0], [], {}, [None] * len(jobs), 0
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
                _child(digests, jobs, worker, workers, write)
            os.close(write)
            children.append((worker, pid, open(read, "rb")))
        for worker in local:
            for outcome in _work(jobs, worker, workers):
                outcomes[outcome[0]] = outcome
        while children:
            worker, pid, pipe = children[0]
            report = pipe.read()  # before the wait: a report can outgrow the pipe's buffer
            _, status, usage = os.wait4(pid, 0)
            pipe.close()
            children.pop(0)
            code, peak = os.waitstatus_to_exitcode(status), max(peak, usage.ru_maxrss)
            if code == 0:
                done, written = pickle.loads(report)
                for outcome in done:
                    outcomes[outcome[0]] = outcome
                digests.update(written)
            else:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                names = ", ".join(f"{suite} {name}" for suite, name, _ in jobs[worker::workers])
                lost[worker] = WorkerError(f"worker {worker} ({names}) {how} before it reported")
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
    log = [{"suite": suite, "job": name, "worker": worker, "seconds": round(seconds, 6)}
           for (suite, name, _), (_, worker, _, _, seconds) in zip(jobs, outcomes)]
    return [outcome[3] for outcome in outcomes], log, round(peak / 1024, 1) if peak else None


def _child(digests: dict, jobs: list, worker: int, workers: int, write: int) -> None:
    """Worker `worker` of run_jobs in a forked child: run its jobs, send
    (outcomes, the digests of the files they wrote) down `write`, and end in
    os._exit, which runs none of the parent's cleanup and flushes none of its
    buffers."""
    import pickle

    code = 1
    try:
        known = set(digests)
        done = _work(jobs, worker, workers)
        if not done[-1][2]:  # the child's frames, which the parent's traceback lacks
            import traceback

            exc = done[-1][3]
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             "".join(traceback.format_exception(exc)).rstrip()]
        report = pickle.dumps((done, {k: v for k, v in digests.items() if k not in known}))
        with open(write, "wb") as pipe:
            pipe.write(report)
        code = 0
    except Exception:  # reported as a WorkerError; the cause goes to stderr
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
