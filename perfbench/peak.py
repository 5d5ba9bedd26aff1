"""Run a module as ``__main__`` and write its peak resident set to a file.

    python3 peak.py OUT MODULE [ARGS...]

The peak RSS that ``wait4`` reports for a child also counts the memory of
the process that started it, because the child's memory before ``exec``
counts too. The peak written here is the module's own (``VmHWM`` after
``exec``) or that of its largest waited-for child, such as a pool worker,
whichever is larger.
"""

from __future__ import annotations

import resource
import runpy
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(hwm_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


if __name__ == "__main__":
    out, module = sys.argv[1], sys.argv[2]
    sys.argv = [module, *sys.argv[3:]]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        Path(out).write_text(f"{peak_rss_mb()!r}\n", encoding="utf-8")
