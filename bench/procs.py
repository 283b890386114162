"""Child processes: spawn, drain, reap with ``os.wait4``, and parse ``-X importtime``."""

from __future__ import annotations

import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

CHILD_TIMEOUT_S = 60.0

# What the ``ncx2shape`` console script runs.
CLI_SHIM = "import sys; from ncx2shape.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ncx2shape; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict) -> ChildResult:
    """Run ``python <args>`` to completion; wall time and peak RSS from wait4.

    Both pipes are drained while the child runs, so a large output cannot
    block it.  A child that outlives CHILD_TIMEOUT_S is killed and reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                break
            for key, _ in sel.select(timeout=remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(proc.returncode, b"".join(chunks[proc.stdout]),
                       b"".join(chunks[proc.stderr]), wall, usage.ru_maxrss)


def import_seconds(env: dict, repeats: int) -> list[float]:
    """In-child wall time of ``import ncx2shape``, one fresh interpreter each."""
    out = []
    for _ in range(repeats):
        res = run_child(["-c", IMPORT_PROBE], env)
        if res.code != 0:
            raise RuntimeError(f"import ncx2shape failed: {res.stderr.decode(errors='replace')}")
        out.append(float(res.stdout.decode().strip().splitlines()[-1]))
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) of ncx2shape, ncx2shape.oracle and scipy.

    scipy's figure is the sum over the outermost ``scipy*`` entries of the
    import tree, i.e. everything scipy costs wherever it is first pulled in.
    Entries that do not occur are absent from the result.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    # Children print before their parent; a row's parent is the next row
    # below it with depth one less.
    parent = [-1] * len(rows)
    open_rows: dict[int, list[int]] = {}
    for i, (depth, _, _) in enumerate(rows):
        for child in open_rows.pop(depth + 1, []):
            parent[child] = i
        open_rows.setdefault(depth, []).append(i)
    out = {}
    scipy_us = 0
    for i, (_, name, cum) in enumerate(rows):
        if name in ("ncx2shape", "ncx2shape.oracle"):
            out[name] = cum / 1000.0
        if name == "scipy" or name.startswith("scipy."):
            p = parent[i]
            if p < 0 or not (rows[p][1] == "scipy" or rows[p][1].startswith("scipy.")):
                scipy_us += cum
    if any(name.startswith("scipy") for _, name, _ in rows):
        out["scipy"] = scipy_us / 1000.0
    return out


def import_breakdown(env: dict, repeats: int) -> dict:
    """Median per-entry importtime figures over fresh interpreters."""
    runs = []
    for _ in range(repeats):
        res = run_child(["-X", "importtime", "-c", "import ncx2shape"], env)
        if res.code != 0:
            raise RuntimeError("import ncx2shape failed under -X importtime")
        runs.append(parse_importtime(res.stderr.decode(errors="replace")))
    keys = set().union(*runs) if runs else set()
    return {k: statistics.median(r[k] for r in runs if k in r) for k in keys}


def interpreter_ms(env: dict, repeats: int) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return statistics.median(run_child(["-c", "pass"], env).wall_s for _ in range(repeats)) * 1e3
