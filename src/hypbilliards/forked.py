"""Evaluate a list in shares, one per forked child process, as this process would.

`map_shares(evaluate, items, workers)` returns ``evaluate(items)`` for an
``evaluate`` that maps a list to a list of one result per item, in order, and
whose result for an item does not depend on the other items.  Share w is
``items[w::workers]``: this process evaluates share 0 and a forked child each
of the others.  A child runs the same code on a copy of this process and
pickles its results back through a pipe, and pickle carries float64 bits
exactly, so the results are the same, bit for bit, as a single process's.

A child prints nothing and leaves through `os._exit`, so no stdio buffer or
atexit hook that it inherited runs twice.  A share whose child could not be
forked, raised, showed a warning, exited non-zero or sent a payload that does
not unpickle is evaluated here after share 0: its exception or warning then
surfaces here, once, as in a single process.  No child outlives the call.

Only the forking thread runs in a child.  OpenBLAS, numpy's BLAS, shuts its
own threads down and restarts them through its fork handlers, so a child may
use it; Python 3.12 and later still warn (`DeprecationWarning`) on a fork in
a process that has other threads.  macOS's Accelerate BLAS is not safe in a
forked child, so callers off Linux pass ``workers`` = 1.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings


def map_shares(evaluate, items: list, workers: int) -> list:
    """``evaluate(items)``, evaluated in ``workers`` processes (module docstring);
    ``workers`` = 1 forks nothing.

    On any exception, `KeyboardInterrupt` included, the children still
    running are killed and reaped before it propagates.
    """
    shares = [items[w::workers] for w in range(workers)]
    children = {}  # share -> (pid, read end of its pipe), until reaped
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: this process takes the shares left
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _child(evaluate, shares[w], write_fd)
            os.close(write_fd)
            children[w] = (pid, open(read_fd, "rb"))
        done = [evaluate(shares[0])]
        for w in range(1, workers):
            got = _collect(children, w) if w in children else None
            done.append(evaluate(shares[w]) if got is None else got)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(items)
    for w, share in enumerate(done):
        results[w::workers] = share
    return results


def _child(evaluate, share: list, write_fd: int):
    """Evaluate ``share`` in a forked child, write the pickled results to
    ``write_fd`` and exit 0, without returning.

    On an exception, or a warning that would be shown, it exits 1 without
    a payload.
    """
    code = 1
    try:
        with warnings.catch_warnings(record=True) as shown:
            results = evaluate(share)
        if not shown:
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
            code = 0
    finally:
        os._exit(code)


def _collect(children: dict, w: int) -> list | None:
    """Share ``w``'s results from its child, or None if it failed; the child
    is reaped either way and leaves ``children`` as it is reaped, before its
    payload is unpickled, so the caller's cleanup never signals a reaped pid.

    The pipe is read to its end before the wait: a payload larger than the
    pipe's buffer (64 KiB on Linux) blocks its child until it is read.
    """
    pid, pipe = children[w]
    with pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    del children[w]
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    try:
        return pickle.loads(payload)
    except Exception:  # a corrupt payload can raise nearly anything
        return None
