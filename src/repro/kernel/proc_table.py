"""The kernel's process table."""

from __future__ import annotations

from typing import Dict, List

from ..errors import KernelError
from .process import PROC_EXITED, Process
from .users import User


class ProcessTable:
    """pid allocation and lookup; the authoritative source of the
    "process view"."""

    def __init__(self) -> None:
        self._procs: Dict[int, Process] = {}
        self._next_pid = 1

    def spawn(self, comm: str, user: User, core_id: int = 0) -> Process:
        proc = Process(pid=self._next_pid, comm=comm, user=user, core_id=core_id)
        self._next_pid += 1
        self._procs[proc.pid] = proc
        return proc

    def get(self, pid: int) -> Process:
        if pid not in self._procs:
            raise KernelError(f"no such pid: {pid}")
        return self._procs[pid]

    def exists(self, pid: int) -> bool:
        return pid in self._procs

    def exit(self, pid: int) -> None:
        self.get(pid).set_state(PROC_EXITED)

    def processes(self, include_exited: bool = False) -> List[Process]:
        procs = list(self._procs.values())
        if not include_exited:
            procs = [p for p in procs if p.alive]
        return procs

    def by_comm(self, comm: str) -> List[Process]:
        return [p for p in self.processes() if p.comm == comm]

    def by_uid(self, uid: int) -> List[Process]:
        return [p for p in self.processes() if p.uid == uid]

    def __len__(self) -> int:
        return len([p for p in self._procs.values() if p.alive])
