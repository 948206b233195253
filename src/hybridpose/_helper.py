"""The helper process of a two-process ``tinynet.train``.

Given the hidden layer, each head level's forward pass, loss, gradient and
Adam update depend on that level alone.  So ``train(jobs=2)`` forks a
helper: each step, ``train``'s process runs the trunk and the finest level
while the helper usually runs the coarse ones; ``train``'s process adds
their terms in the one-process order and runs the trunk's backward pass,
and each updates its part of ``flat``, with the bits of one process.  This
module is imported only when such a helper starts.
"""

from __future__ import annotations

import gc
import mmap
import os
import pickle
import select
import signal
import time
from contextlib import suppress

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
    process's views.  Each coarse level is a task, one byte on a pipe that
    both processes read without blocking: whoever reads it does it, so this
    process does those the helper is slow to take (say, while its core is
    busy elsewhere).  Then the helper alone updates the part of ``flat`` that
    ``optimizer`` leaves.  It reports each task done with one byte on a
    second pipe, or its error, pickled, and ends at ``close`` or with this
    process.
    """

    def __init__(self, net: TinyNet, learning_rate: float, weights, rows: int):
        config, size = net.config, net.flat.size
        self.levels, self.width = range(1, config.hierarchy.depth), config.hidden_dims[-1]
        # Adam's split, by measurement: this process, which also runs the trunk's
        # backward pass meanwhile, updates the first third of ``flat``, at least
        # the trunk, whose gradient is complete only after the coarse terms.
        split = max(size // 3, size - sum(w.size + b.size for w, b in net.head_blocks))
        terms = N_ANGLES * len(self.levels)
        sizes = [size] * 6 + [2, rows * self.width, rows * N_ANGLES]
        sizes += [rows * self.width * terms, terms]
        flat, grad, m, v, s1, s2, self._header, *exchange, ce = np.split(
            np.frombuffer(mmap.mmap(-1, 8 * sum(sizes))), np.cumsum(sizes)[:-1]
        )
        self.net, self.grad = TinyNet(config, flat), TinyNet(config, grad)
        self.net.flat[...] = net.flat
        self.optimizer = AdamState(learning_rate, m=m, v=v, part=slice(split))
        self._state = AdamState(learning_rate, m=m, v=v, part=slice(split, None))
        # Shared work arrays too, so each process holds only its part's pages.
        for state in (self.optimizer, self._state):
            state._scratch = (s1[state.part], s2[state.part])
        self._hidden, self._truth, self._d_heads = exchange
        self._ce, self._weights = ce.reshape(N_ANGLES, len(self.levels)), weights
        self._offered, self._offer = os.pipe()
        os.set_blocking(self._offered, False)
        self._done, done_out = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._offer)  # so the helper sees the pipe end when this process does
            os.close(self._done)
            self._serve(done_out)
        os.close(done_out)

    def _batch(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The exchange's views for the batch in it: hidden layer, (3, n)
        targets and the coarse levels' hidden-layer terms."""
        n, h = int(self._header[0]), self.width
        d_heads = self._d_heads[: len(self.levels) * N_ANGLES * n * h]
        return (
            self._hidden[: n * h].reshape(n, h),
            self._truth[: N_ANGLES * n].reshape(N_ANGLES, n),
            list(d_heads.reshape(len(self.levels), N_ANGLES, n, h)),
        )

    def _run(self, task: int) -> None:
        """Do a task for the exchange's step, writing into the exchange: a
        coarse level's terms (task = its index), or (task 0) the helper part's
        Adam update and ``_first_nonfinite``."""
        if task:
            hidden, truth, d_heads = self._batch()
            i = task - self.levels.start
            self._ce[:, i] = tinynet._level_terms(
                self.net, self.grad, hidden, truth, self._weights, [task], d_heads[i : i + 1]
            )[1][:, 0]
        else:
            tinynet.adam_update(self.net.flat, self.grad.flat, self._state)
            self._header[1] = tinynet._first_nonfinite(0.0, self._state, self.net.flat)

    def _serve(self, done: int) -> None:
        """The helper's loop, one task per byte it takes; it exits, never returning."""
        try:
            gc.freeze()  # its collections then never copy the pages it shares with its parent
            while True:
                _await(self._offered)
                try:
                    task = os.read(self._offered, 1)
                except BlockingIOError:  # the other process took it
                    continue
                if not task:  # the pipe's end: this process's parent is gone
                    break
                self._run(task[0])
                os.write(done, b".")
        except BaseException as exc:
            with suppress(BaseException):  # this process may be gone
                os.write(done, b"!" + pickle.dumps(exc))
        os._exit(0)

    def _run_offered(self, tasks: int) -> None:
        """Run here each of the ``tasks`` last offered that the helper has not
        taken, then wait for those it has."""
        with suppress(BlockingIOError):
            while task := os.read(self._offered, 1):
                self._run(task[0])
                tasks -= 1
        self._wait(tasks)

    def _wait(self, tasks: int) -> None:
        """Wait for the helper to finish ``tasks`` tasks; raise its error, if it sends one."""
        for _ in range(tasks):
            _await(self._done)
            message = os.read(self._done, 1)
            if message != b".":
                rest = b"".join(iter(lambda: os.read(self._done, 1 << 16), b""))
                if message == b"!":
                    raise pickle.loads(rest)
                raise ChildProcessError(f"training helper process {self.pid} ended unexpectedly")

    def start(self, hidden: np.ndarray, targets: np.ndarray) -> None:
        """Offer the coarse levels of a batch: its hidden layer and (n, 3) targets."""
        self._header[0] = hidden.shape[0]
        exchange_hidden, truth, _ = self._batch()
        exchange_hidden[...] = hidden
        truth[...] = targets.T
        os.write(self._offer, bytes(self.levels))

    def terms(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The coarse levels' (3, levels) cross-entropy sums and hidden-layer
        terms.  Called once the finest level's gradient is in, it then has the
        helper start Adam's update of its part of ``flat``."""
        self._run_offered(len(self.levels))
        os.write(self._offer, b"\0")
        return self._ce, self._batch()[2]

    def updated(self) -> int:
        """Wait for the helper's Adam update of its part of ``flat``, and
        return ``_first_nonfinite`` of that part (never done here, so this
        process does not hold that part's pages)."""
        self._wait(1)
        return int(self._header[1])

    def close(self) -> None:
        """Kill the helper, whose work is all in the shared mapping, and reap it:
        killed, it ends even if another process holds a copy of its pipe."""
        os.close(self._offer)
        os.kill(self.pid, signal.SIGKILL)
        try:
            os.waitpid(self.pid, 0)
        finally:
            os.close(self._done)
            os.close(self._offered)
