"""Process bookkeeping read from /proc (psutil is not available here).

A benchmark run starts its Ray session in a child process that leads its own
process group, so every raylet, GCS server, worker and agent of that session
shares the child's group id. These helpers list that group, classify its
members, read their peak resident memory and kill what outlives the session.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Iterable, List

# Processes whose survival after ``ray.shutdown()`` is a leak. Ray's dashboard
# and runtime-env agents poll their raylet through psutil; without psutil they
# never notice it has gone, so they are reaped as part of teardown instead.
CORE_ROLES = ("gcs", "raylet", "worker")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


def _stat_fields(pid: int) -> List[str]:
    """Fields of /proc/<pid>/stat after the command name: state, ppid, pgrp..."""
    stat = _read(f"/proc/{pid}/stat").decode("ascii", "replace")
    close = stat.rfind(")")
    return stat[close + 2 :].split() if close >= 0 else []


def alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return bool(fields) and fields[0] not in ("Z", "X")


def group_members(pgid: int, exclude: Iterable[int] = ()) -> List[int]:
    """Live (not zombie) processes of process group ``pgid``."""
    skip = set(exclude)
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) in skip:
            continue
        fields = _stat_fields(int(name))
        if len(fields) > 2 and fields[0] not in ("Z", "X") and int(fields[2]) == pgid:
            out.append(int(name))
    return out


def cmdline(pid: int) -> str:
    return _read(f"/proc/{pid}/cmdline").replace(b"\0", b" ").decode("utf-8", "replace").strip()


def role(pid: int) -> str:
    """gcs, raylet, worker (any ``ray::`` process) or other (agents, monitors)."""
    cmd = cmdline(pid)
    if cmd.startswith("ray::"):
        return "worker"
    prog = os.path.basename(cmd.split(" ", 1)[0]) if cmd else ""
    if prog == "gcs_server":
        return "gcs"
    if prog == "raylet":
        return "raylet"
    return "other"


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MiB, 0 if it is gone."""
    for line in _read(f"/proc/{pid}/status").decode("ascii", "replace").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def kill_and_wait(pids: Iterable[int], timeout_s: float = 10.0) -> List[int]:
    """SIGKILL each pid and wait until it has ended; return any still alive."""
    pids = list(pids)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    while True:
        left = [p for p in pids if alive(p)]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


def reap_group(pgid: int, exclude: Iterable[int] = (), grace_s: float = 3.0) -> Dict[str, int]:
    """End every process left in ``pgid`` after a Ray shutdown.

    Core processes (see ``CORE_ROLES``) get ``grace_s`` to exit on their own;
    those still alive afterwards are counted as leaked. Everything left is
    killed and waited for. Returns counts: leaked, reaped_other, unkillable.
    """
    exclude = set(exclude)
    deadline = time.monotonic() + grace_s
    while True:
        members = group_members(pgid, exclude)
        core = [p for p in members if role(p) in CORE_ROLES]
        if not core or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    members = group_members(pgid, exclude)
    leaked = sum(1 for p in members if role(p) in CORE_ROLES)
    left = kill_and_wait(members)
    return {"leaked": leaked, "reaped_other": len(members) - leaked, "unkillable": len(left)}
