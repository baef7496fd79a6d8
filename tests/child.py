"""Run Python as a child process with ``src`` on its path, under stated bounds.

A launcher caps the child at 4 GiB of address space and 120 s of CPU as a
backstop, spawns it and reaps it with ``os.wait4``: Linux counts in maxrss the
peak of the image that ``exec`` replaced, so a child of the test process would
read that process's peak. The launcher's, about 13 MB, is the floor;
``RUSAGE_CHILDREN`` would read the largest child reaped so far.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

PYTHONPATH = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                           os.environ.get("PYTHONPATH")]))

LAUNCHER = r"""
import os, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (120, 120))
start = time.perf_counter()
_, status, usage = os.wait4(os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ), 0)
sys.stderr.write(f"\n{os.waitstatus_to_exitcode(status)} {time.perf_counter() - start} {usage.ru_maxrss / 1024}")
"""


def run_child(args, *, seconds=None, mb=None, code=0, cwd=None) -> SimpleNamespace:
    """Run ``python *args``: it exits with ``code``, within ``seconds`` and ``mb`` MB
    (KiB / 1024) of maxrss where given, and writes no traceback (no stderr if 0)."""
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *args], stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": PYTHONPATH}, check=True)
    stderr, _, figures = done.stderr.rpartition("\n")
    status, wall, rss = figures.split()
    child = SimpleNamespace(code=int(status), stdout=done.stdout, stderr=stderr, wall_s=float(wall), maxrss_mb=float(rss))
    print(f"exit {child.code}, {child.wall_s:.2f} s, maxrss {child.maxrss_mb:.0f} MB")  # pytest -rP shows it
    assert child.code == code, child.stderr
    assert "Traceback" not in child.stderr if code else child.stderr == "", child.stderr
    assert seconds is None or child.wall_s < seconds, child
    assert mb is None or child.maxrss_mb < mb, child
    return child
