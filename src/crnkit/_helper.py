"""One helper process that runs part of each long replica sweep.

``simulate``'s replica sweeps may hand the first part of a long replica range
to a second Python process, so that a sweep uses two cores; each replica
draws from its own keyed stream, so the split changes no value (see
``simulate._sweep``, which also sizes the part).  This module owns that
process: when it starts, how a request reaches it, and how it ends.

- It starts once the process has spent ``_START_S`` in sweeps that would have
  split, at the next such sweep, and never in a process with fewer than two
  usable CPUs.  A sweep never waits for it to become ready.
- It runs ``serve``: a request is a pickled (function, arguments) pair on its
  standard input, the reply the pickled result on its standard output (None
  when the function raised).  Its standard error goes to the null device, so
  it never holds the caller's output open.
- One thread of the process that started it uses it at a time, under a lock
  taken without blocking; a forked child or a second thread runs in-process.
- It ignores SIGINT and exits when its input ends, which also happens when
  the caller dies.  An exit hook closes its input and waits ``_EXIT_S`` for
  it, killing it if it is not ready or does not exit in time.
- Any failure (the helper gone, a broken pipe, an interrupt while a reply
  is pending) kills it for good: later sweeps run in-process.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import threading

_START_S = 0.2  # the helper was ready about 0.155 s after starting, on a 2-CPU host
_EXIT_S = 1.0  # seconds the exit hook waits for the helper to end
_READY = b"R"  # the helper's first byte, once it has imported crnkit

# the helper's program; its argument is the directory crnkit was imported from
_MAIN = """\
import signal, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
sys.path.insert(0, sys.argv[1])
import crnkit, crnkit._helper
crnkit._helper.serve(sys.stdin.buffer, sys.stdout.buffer)
"""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def serve(requests, replies) -> None:
    """The helper's loop: answer each pickled (function, arguments) request
    with the pickled result, or None when the function raises (the caller
    then reruns the work and raises the error itself), until the requests
    end."""
    replies.write(_READY)
    replies.flush()
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = fn(*args)
        except Exception:
            reply = None
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


class Helper:
    """The helper of this process: ``claim`` may start it and reserves it
    for one request, which ``send`` hands over and ``collect`` (or
    ``abandon``) ends."""

    def __init__(self):
        self.lock = threading.Lock()
        self.proc = None
        self.pid = None  # the process that started a helper, kept after it is dropped
        self.ready = False
        self.owed = 0.0  # seconds spent in sweeps that would have split (simulate._sweep)
        self.share = 0.5  # the part of a split sweep's rest the helper takes (simulate._sweep)

    def claim(self) -> bool:
        """Return True, holding the lock, when a ready helper may take part
        of a long sweep now.  Starts the helper once ``owed`` has reached
        ``_START_S``."""
        if not self.lock.acquire(blocking=False):
            return False
        if self._usable():
            return True
        self.lock.release()
        return False

    def _usable(self) -> bool:
        if _usable_cpus() < 2:
            return False
        if self.pid is None:
            if self.owed >= _START_S:
                self._start()
            return False
        if self.pid != os.getpid() or self.proc is None:
            return False
        if not self.ready:
            import select

            if select.select([self.proc.stdout], [], [], 0)[0]:
                self.ready = self.proc.stdout.read(1) == _READY
                if not self.ready:  # the helper ended before it was ready
                    self._drop()
        return self.ready

    def _start(self) -> None:
        import subprocess

        self.pid = os.getpid()
        if not sys.executable:
            return
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _MAIN, root],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError:  # no process to be had: sweeps run in-process
            return
        atexit.register(self.stop)

    def send(self, fn, *args) -> bool:
        """Hand ``fn(*args)`` to the claimed helper.  On failure the lock is
        released, the helper dropped if a request may be half sent, and
        False returned."""
        try:
            request = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):  # an argument that cannot travel
            self.lock.release()
            return False
        try:
            self.proc.stdin.write(request)
            self.proc.stdin.flush()
            return True
        except OSError:
            self.abandon()
            return False

    def collect(self):
        """The reply to the request sent, or None if the helper failed (it
        is then dropped); releases the lock."""
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            self._drop()
            return None
        except BaseException:  # an interrupt: the reply stays unread
            self._drop()
            raise
        finally:
            self.lock.release()

    def abandon(self) -> None:
        """Drop the claimed helper, whose reply will not be read, and
        release the lock."""
        self._drop()
        self.lock.release()

    def _drop(self) -> None:
        proc, self.proc, self.ready = self.proc, None, False
        if proc is not None:
            _end(proc, 0.0)

    def stop(self) -> None:
        """The exit hook: end the helper this process started."""
        if self.proc is not None and self.pid == os.getpid():
            proc, self.proc = self.proc, None
            _end(proc, _EXIT_S if self.ready else 0.0)


def _end(proc, wait: float) -> None:
    """Close the helper's input, which ends it, and reap it; kill it if it
    is still running after ``wait`` seconds."""
    import subprocess

    try:
        proc.stdin.close()
    except OSError:  # unsent request bytes and the helper gone
        pass
    try:
        proc.wait(wait)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


HELPER = Helper()
