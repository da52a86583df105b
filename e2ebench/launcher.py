"""Spawns the timed ``python -m repro`` invocations for ``run.py``.

A child's peak RSS as ``wait4`` reports it starts from the RSS of the
process that forked it, because Linux records the forked address space's
high-water mark at ``exec``.  ``run.py`` holds policies, packets and FDDs
in memory, so it starts this small process before loading anything and
lets it fork every timed invocation; the reported peak is then the CLI's
own.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd",
"timeout"}``; one JSON reply per line on stdout, ``{"wall", "status",
"rss_kb"}``.  The child's stdout and stderr go to ``.stdout`` and
``.stderr`` in ``cwd``.  The launcher exits at end of input.

A CLI run can leave processes behind that outlive it for a moment (the
``multiprocessing`` resource tracker of ``compare --jobs 2``, say).  The
launcher is a child subreaper, so they are reparented to it, and it
waits for every one of them before it replies; ``run.py`` does the same
for itself.
"""

import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a process left behind may take to exit before it is killed.
ORPHAN_GRACE_S = 10.0


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that ``reap_children`` waits for them."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def children() -> list:
    """Pids whose parent is this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(grace: float = ORPHAN_GRACE_S) -> None:
    """Wait until this process has no children; kill those alive after ``grace`` s."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def spawn(argv: list, cwd: str, timeout: float) -> dict:
    with open(os.path.join(cwd, ".stdout"), "wb") as out, \
            open(os.path.join(cwd, ".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, stdout=out, stderr=err)
        reaped = threading.Event()

        def kill_if_running() -> None:
            if not reaped.is_set():
                proc.kill()

        timer = threading.Timer(timeout, kill_if_running)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        wall = time.perf_counter() - start
    reap_children()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "status": proc.returncode, "rss_kb": usage.ru_maxrss}


def main() -> None:
    become_subreaper()
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["cwd"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
