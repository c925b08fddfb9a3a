"""Host-speed reference: a fixed pure-Python task timed while the program runs.

The benchmark runs on shared hosts whose speed moves by half and more
within a minute, in CPU time as well as in wall time, so a CPU time
alone says as much about the neighbours as about the program.  While
operations run, a profiling timer interrupts the process every
``INTERVAL_S`` of CPU time and times one run of :func:`reference_task`
-- a fixed mix of standard-library work (an XML parse into a DOM and a
walk over it, an AST visit, a JSON decode) that, like the program,
spends its time building and walking object trees in the interpreter.
An operation's cost is then its CPU time, less the time spent in the
samples, over the mean reference time sampled during it: a number of
reference tasks, which moves with the program and not with the host.

CPU time is read per thread (the benchmark and the program share one):
while a process-wide CPU timer is armed, Linux serves the process CPU
clock from a total it updates only on scheduler ticks.

Checked on one 2-vCPU VM: over ten passes of the same inputs, raw CPU
times spread (standard deviation over mean) 13% on a serve round, 15%
on a bulk evaluation and 20% on a nested evaluation; in reference
units 2%, 3.5% and 4%.  A tight loop over a fixed tree or an
allocating tree build, timed the same way, over-corrected the bulk
evaluation and was dropped.
"""

from __future__ import annotations

import ast
import inspect
import json
import random
import signal
import statistics
import textwrap
import time
from xml.dom import minidom

INTERVAL_S = 0.04  # CPU seconds between samples; one sample takes ~1.5 ms


def _xml(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return f"<v>{rng.randint(0, 9)}</v>"
    children = "".join(_xml(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return f"<n a='{depth}'>{children}</n>"


_RNG = random.Random(1)
_XML = "<root>" + "".join(_xml(_RNG, 3) for _ in range(3)) + "</root>"
_AST = ast.parse(textwrap.dedent(inspect.getsource(textwrap.TextWrapper._wrap_chunks)))
_JSON = json.dumps({"k": [{"a": i, "b": str(i)} for i in range(60)]})


class _Visitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.nodes = 0

    def generic_visit(self, node: ast.AST) -> None:
        self.nodes += 1
        super().generic_visit(node)


def reference_task() -> float:
    """CPU seconds one run of the fixed reference mix takes."""
    started = time.thread_time()
    stack = [minidom.parseString(_XML).documentElement]
    while stack:
        stack.extend(stack.pop().childNodes)
    _Visitor().visit(_AST)
    json.loads(_JSON)
    return time.thread_time() - started


class HostSpeed:
    """Samples :func:`reference_task` every ``INTERVAL_S`` CPU seconds
    while open; :meth:`begin`/:meth:`end` bracket one operation."""

    def __init__(self) -> None:
        self.samples: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_task())

    def __enter__(self) -> "HostSpeed":
        self.samples.append(reference_task())
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def begin(self) -> tuple:
        return len(self.samples), time.thread_time()

    def end(self, token: tuple) -> tuple[float, float]:
        """``(cpu_s, reference_s)`` of the operation begun with
        ``token``: its CPU seconds less the samples taken inside it, and
        the mean sample inside it (the latest one before it when the
        operation was too short to be sampled).  ``reference_s`` is
        None when the sampler was never opened."""
        first, cpu_started = token
        cpu = time.thread_time() - cpu_started
        inside = self.samples[first:]
        if inside:
            return cpu - sum(inside), statistics.fmean(inside)
        return cpu, self.samples[-1] if self.samples else None
