"""Process control block."""

from __future__ import annotations

from typing import Optional

from ..errors import KernelError
from .users import User

PROC_RUNNING = "running"
PROC_BLOCKED = "blocked"
PROC_EXITED = "exited"

_STATES = (PROC_RUNNING, PROC_BLOCKED, PROC_EXITED)


class Process:
    """One OS process: identity (pid/uid/comm), cgroup, core affinity.

    This object *is* the "process view" the paper keeps returning to:
    iptables' ``--cmd-owner``/``--uid-owner`` match against ``comm``/``uid``,
    tc classifies on ``cgroup``, and netstat joins sockets against ``pid``.
    """

    def __init__(self, pid: int, comm: str, user: User, core_id: int = 0):
        if pid < 1:
            raise KernelError(f"pid must be >= 1, got {pid}")
        if not comm:
            raise KernelError("comm must be non-empty")
        self.pid = pid
        self.comm = comm
        self.user = user
        self.core_id = core_id
        self.cgroup_path: str = "/"
        self.state = PROC_RUNNING
        self.blocked_count = 0

    @property
    def uid(self) -> int:
        return self.user.uid

    def set_state(self, state: str) -> None:
        if state not in _STATES:
            raise KernelError(f"unknown process state: {state!r}")
        if self.state == PROC_EXITED and state != PROC_EXITED:
            raise KernelError(f"pid {self.pid} already exited")
        if state == PROC_BLOCKED:
            self.blocked_count += 1
        self.state = state

    @property
    def alive(self) -> bool:
        return self.state != PROC_EXITED

    def __repr__(self) -> str:
        return f"<Process pid={self.pid} comm={self.comm!r} uid={self.uid} {self.state}>"


OwnerInfo = "tuple[int, int, str]"


def owner_info(proc: Optional[Process]) -> "Optional[tuple[int, int, str]]":
    """(pid, uid, comm) triple, or None for an unattributable packet."""
    if proc is None:
        return None
    return (proc.pid, proc.uid, proc.comm)
