"""The package's forked processes: ``train``'s helper and ``eval``'s and ``ablate``'s workers.

Forked on Linux only, each starts as a copy of its parent: its modules, data
and one-thread BLAS.  A child that fails sends '!' and its pickled error and
exits; a pipe that ends first, as when its child is killed, fails as
``ChildProcessError`` naming the child.  A child exits when it next sends a
result, or the helper when it next waits for a task, after its parent died;
its parent kills and reaps it when done.

``pool`` runs ``cli._run_map``'s calls.  Its function and calls are fixed
when its workers are forked, so the parent sends a worker nothing: worker k
runs calls k, k + jobs, ... in turn, and the parent reads call i's result
from worker i mod jobs, so the results come back in input order.  ``Helper``
shares each step of a two-process ``tinynet.train``: given the hidden layer,
each head level's forward pass, loss, gradient and Adam update depend on that
level alone, so the helper runs the coarse levels while ``train``'s process
runs the trunk and the finest one, adds their terms in the one-process order
and runs the trunk's backward pass; each updates its part of ``flat``, with
the bits of one process.  This module is imported only when a child starts.
"""

from __future__ import annotations

import mmap
import os
import pickle
import select
import signal
import time
from contextlib import contextmanager, suppress
from functools import partial

import numpy as np

# The step's functions are called through the module, so that a name patched
# there (by a test, or the benchmark's tracer) is the one that runs.
from . import tinynet
from .tinynet import N_ANGLES, AdamState, TinyNet

__all__: list[str] = []

# How long a process of a two-process step polls for the other's next message
# before it sleeps: a sleeping core can take far longer to wake.  Measured to
# span the gaps of a batch-64 step.
POLL_SECONDS = 0.002

# This process's ends of its live children's pipes.  A new child closes them
# all: holding another child's pipe, it would keep that child from finding
# this process gone.
_parent_ends: set[int] = set()


def fork(serve, *ends: int) -> tuple[int, int]:
    """Fork a child that runs ``serve(report)`` and exits; return its pid and
    the read end of pipe ``report``.  ``ends`` are this side's ends of its
    other pipes."""
    results, report = os.pipe()
    _parent_ends.update((*ends, results))
    try:
        pid = os.fork()
    except OSError:
        _close(*ends, results, report)
        raise
    if pid == 0:
        try:
            _close(*_parent_ends)
            serve(report)
        except BaseException as exc:
            with suppress(BaseException):  # this process's parent may be gone
                _write(report, b"!" + pickle.dumps(exc))
        os._exit(0)
    os.close(report)
    return pid, results


def _close(*fds: int) -> None:
    for fd in fds:
        os.close(fd)
    _parent_ends.difference_update(fds)


def end(pid: int, *ends: int) -> None:
    """Kill child ``pid``, busy or not, reap it and close ``ends``."""
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    finally:
        _close(*ends)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _receive(pipe, process: str, kind: bytes = b""):
    """What ``process`` sent on file ``pipe`` after ``kind``, its first byte,
    read here if not given: after '.', an object, returned; after '!', its
    error, raised.  A pipe that ends first raises ``ChildProcessError``."""
    kind = kind or pipe.read(1)
    try:
        value = pickle.load(pipe)
    except Exception:  # the pipe ended, maybe within the pickle
        kind = b""
    if kind == b".":
        return value
    raise value if kind == b"!" else ChildProcessError(f"{process} ended unexpectedly")


def _work(fn, calls: list, report: int) -> None:
    """A pool worker's loop: send back '.' and ``fn``'s result for each of ``calls``, in turn."""
    for args in calls:
        _write(report, b"." + pickle.dumps(fn(*args)))


@contextmanager
def pool(jobs: int, fn, calls: list):
    """``starmap(fn, calls)`` on ``jobs`` forked workers, worker k running calls
    k, k + jobs, ... as far ahead as its result pipe holds; killed and reaped on
    leaving the block.  A call's error is raised when its result is due, so the
    first failing call in input order names it."""
    pids, pipes = [], []  # each worker's pid, and its (result pipe as a file, name)
    try:
        for k in range(jobs):
            pid, results = fork(partial(_work, fn, calls[k::jobs]))
            pids.append(pid)
            pipes.append((open(results, "rb", closefd=False), f"worker process {pid}"))
        yield (_receive(*pipes[i % jobs]) for i in range(len(calls)))
    finally:
        for pid, (results, _) in zip(pids, pipes):
            end(pid, results.fileno())


def _await(fd: int) -> None:
    """Return once ``fd`` is readable: polled for up to POLL_SECONDS, then waited for."""
    poller, deadline = select.poll(), time.perf_counter() + POLL_SECONDS
    poller.register(fd, select.POLLIN)
    while not poller.poll(0):
        if time.perf_counter() > deadline:
            poller.poll()
            return


class Helper:
    """The forked process of a two-process ``train``, and the work the two share.

    The net, its gradient, Adam's moments and the step's exchange live in one
    shared anonymous mapping; ``net``, ``grad`` and ``optimizer`` are this
    process's views.  Each step this process offers the helper two tasks,
    one byte each on a pipe: all the coarse levels, then, once it has their
    terms, the Adam update of the part of ``flat`` that ``optimizer`` leaves,
    up to the end of the last trained level.
    The helper reports each task done with one byte on a second pipe, or its
    error, pickled, and ends at ``close`` or with this process.
    """

    def __init__(self, net: TinyNet, learning_rate: float, weights, rows: int):
        config, size = net.config, net.flat.size
        self.levels, self.width = range(1, config.hierarchy.depth), config.hidden_dims[-1]
        # The coarse levels whose hidden-layer terms the helper sends back.
        self._trained = [li for li in tinynet._trained_levels(weights) if li in self.levels]
        # Adam's split, by measurement: this process, which also runs the trunk's
        # backward pass meanwhile, updates the first third of ``flat``, at least
        # the trunk, whose gradient is complete only after the coarse terms.
        # Both parts end where the trained levels do, so the helper's may be empty.
        split = max(size // 3, size - sum(w.size + b.size for w, b in net.head_blocks))
        end = tinynet._trained_end(net, weights)
        terms = N_ANGLES * len(self.levels)
        sizes = [size] * 4 + [2, rows * self.width, rows * N_ANGLES]
        sizes += [rows * self.width * N_ANGLES * len(self._trained), terms]
        flat, grad, m, v, self._header, *exchange, ce = np.split(
            np.frombuffer(mmap.mmap(-1, 8 * sum(sizes))), np.cumsum(sizes)[:-1]
        )
        self.net, self.grad = TinyNet(config, flat), TinyNet(config, grad)
        self.net.flat[...] = net.flat
        self.optimizer = AdamState(learning_rate, m=m, v=v, part=slice(min(split, end)))
        self._state = AdamState(learning_rate, m=m, v=v, part=slice(split, end))
        self._hidden, self._truth, self._d_heads = exchange
        self._ce, self._weights = ce.reshape(N_ANGLES, len(self.levels)), weights
        # This process keeps the read end too, so that a task offered to a dead
        # helper is not a broken pipe: its end shows on ``_done``, naming it.
        self._offered, self._offer = os.pipe()
        self.pid, self._done = fork(self._serve, self._offer)

    def _batch(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The exchange's views for the batch in it: hidden layer, (3, n)
        targets and the trained coarse levels' hidden-layer terms."""
        n, h = int(self._header[0]), self.width
        d_heads = self._d_heads[: len(self._trained) * N_ANGLES * n * h]
        return (
            self._hidden[: n * h].reshape(n, h),
            self._truth[: N_ANGLES * n].reshape(N_ANGLES, n),
            list(d_heads.reshape(len(self._trained), N_ANGLES, n, h)),
        )

    def _serve(self, done: int) -> None:
        """The helper's loop, until the offer pipe ends: for each byte taken, a
        task for the exchange's step, written into the exchange, then a byte on
        ``done``.  Byte 1 is the coarse levels' terms, byte 0 the helper
        part's Adam update and its ``_first_nonfinite``."""
        while True:
            _await(self._offered)
            task = os.read(self._offered, 1)
            if not task:  # this process's parent is gone
                return
            if task == b"\1":
                hidden, truth, d_heads = self._batch()
                self._ce[...] = tinynet._level_terms(
                    self.net, self.grad, hidden, truth, self._weights, self.levels, d_heads
                )[1]
            else:
                tinynet.adam_update(self.net.flat, self.grad.flat, self._state)
                self._header[1] = tinynet._first_nonfinite(0.0, self._state, self.net.flat)
            os.write(done, b".")

    def _wait(self) -> None:
        """Wait for the helper to finish its task; raise its error, if it sends one."""
        _await(self._done)
        message = os.read(self._done, 1)
        if message != b".":  # '!' and its error, or the pipe's end
            done = open(self._done, "rb", closefd=False)
            _receive(done, f"training helper process {self.pid}", message)

    def start(self, hidden: np.ndarray, targets: np.ndarray) -> None:
        """Offer the coarse levels of a batch: its hidden layer and (n, 3) targets."""
        self._header[0] = hidden.shape[0]
        exchange_hidden, truth, _ = self._batch()
        exchange_hidden[...] = hidden
        truth[...] = targets.T
        os.write(self._offer, b"\1")

    def terms(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The coarse levels' (3, levels) cross-entropy sums and the trained
        ones' hidden-layer terms.  Called once the finest level's gradient is
        in, it then has the helper start Adam's update of its part of ``flat``."""
        self._wait()
        os.write(self._offer, b"\0")
        return self._ce, self._batch()[2]

    def updated(self) -> int:
        """Wait for the helper's Adam update of its part of ``flat``, and
        return ``_first_nonfinite`` of that part (never done here, so this
        process does not hold that part's pages)."""
        self._wait()
        return int(self._header[1])

    def close(self) -> None:
        """Kill the helper, whose work is all in the shared mapping, and reap it."""
        end(self.pid, self._offer, self._done, self._offered)
