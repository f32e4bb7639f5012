"""Per-layer wall-time attribution, measured from outside the program.

:class:`LayerTracer` wraps public entry points of each ``repro`` package
at class level, plus every callback handed to ``Simulation.at`` /
``Simulation.after``, and keeps a stack of open spans.  A layer's *self*
time is the wall time of its spans minus the time covered by spans
nested inside them, so a recursive or re-entrant call is never counted
twice.  The wrappers only observe: they call the original with the same
arguments and return its result unchanged.

Install before the hosts are built (objects cache bound methods at
construction) and uninstall when done; :meth:`LayerTracer.uninstall`
restores every class attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

#: The packages whose cost the benchmark attributes.  ``syscall`` is part
#: of the kernel and ``workloads``/``experiments`` of the applications.
LAYERS = (
    "sim", "sched", "kernel", "net", "core", "apps",
    "io", "fs", "mem", "cluster", "metrics",
)
_ALIASES = {"syscall": "kernel", "workloads": "apps", "experiments": "apps"}

#: (module, class, attribute, layer) for each wrapped entry point.  Each
#: is defined on the class listed; subclasses that override it are
#: listed separately.
TARGETS = (
    ("repro.sim.engine", "Simulation", "run", "sim"),
    ("repro.sched.container_sched", "ContainerScheduler", "pick_for_cpu", "sched"),
    ("repro.sched.container_sched", "ContainerScheduler", "on_slice_end", "sched"),
    ("repro.sched.container_sched", "ContainerScheduler", "on_wakeup", "sched"),
    ("repro.sched.container_sched", "ContainerScheduler", "charge", "sched"),
    ("repro.sched.container_sched", "ContainerScheduler", "window_roll", "sched"),
    ("repro.kernel.kernel", "Kernel", "net_input", "kernel"),
    ("repro.kernel.kernel", "Kernel", "net_input_batch", "kernel"),
    ("repro.kernel.kernel", "Kernel", "wake", "kernel"),
    ("repro.kernel.kernel", "Kernel", "disk_read_complete", "kernel"),
    ("repro.kernel.kernel", "Kernel", "entity_action", "kernel"),
    ("repro.kernel.cpu", "CPU", "post_hard_interrupt", "kernel"),
    ("repro.kernel.cpu", "CPU", "notify_ready", "kernel"),
    ("repro.kernel.cpu", "CPU", "flush_charges", "kernel"),
    ("repro.kernel.syscalls", "SyscallExecutor", "execute", "kernel"),
    ("repro.kernel.syscalls", "SyscallExecutor", "resume", "kernel"),
    ("repro.net.tcp", "TcpStack", "demux_packet", "net"),
    ("repro.net.tcp", "TcpStack", "protocol_input", "net"),
    ("repro.net.tcp", "TcpStack", "transmit_response", "net"),
    ("repro.net.procmodel", "KernelNetThread", "enqueue", "net"),
    ("repro.net.procmodel", "KernelNetThread", "advance", "net"),
    ("repro.net.procmodel", "KernelNetThread", "runnable", "net"),
    ("repro.core.operations", "ContainerManager", "create", "core"),
    ("repro.core.operations", "ContainerManager", "release", "core"),
    ("repro.core.container", "ResourceContainer", "charge_cpu", "core"),
    ("repro.apps.webclient", "HttpClient", "on_synack", "apps"),
    ("repro.apps.webclient", "HttpClient", "on_established", "apps"),
    ("repro.apps.webclient", "HttpClient", "on_response", "apps"),
    ("repro.apps.webclient", "HttpClient", "on_server_close", "apps"),
    ("repro.io.device", "DiskDevice", "submit", "io"),
    ("repro.io.scheduler", "FifoIOScheduler", "add", "io"),
    ("repro.io.scheduler", "FifoIOScheduler", "pop", "io"),
    ("repro.io.scheduler", "WeightedFairIOScheduler", "add", "io"),
    ("repro.io.scheduler", "WeightedFairIOScheduler", "pop", "io"),
    ("repro.fs.filesystem", "BufferCache", "lookup", "fs"),
    ("repro.fs.filesystem", "BufferCache", "insert", "fs"),
    ("repro.mem.physmem", "MemoryAccountant", "try_charge", "mem"),
    ("repro.mem.physmem", "MemoryAccountant", "uncharge", "mem"),
    ("repro.cluster.fabric", "Fabric", "send", "cluster"),
    ("repro.cluster.balancer", "RoundRobinPolicy", "choose", "cluster"),
    ("repro.cluster.balancer", "LeastLoadedPolicy", "choose", "cluster"),
    ("repro.cluster.balancer", "UsageWeightedPolicy", "choose", "cluster"),
    ("repro.cluster.principal", "GlobalContainer", "roll", "cluster"),
    ("repro.metrics.stats", "ThroughputMeter", "record", "metrics"),
)

#: Attribute set on every wrapper, naming its layer.
MARK = "_perfbench_layer"


def layer_of_module(module: str) -> "str | None":
    """The layer a ``repro.<package>...`` module belongs to, else None."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    package = _ALIASES.get(parts[1], parts[1])
    return package if package in LAYERS else None


class LayerTracer:
    """Self time and call counts per layer, from a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Open spans, innermost last; each holds the time its children
        #: covered so far.
        self._stack: list = []
        self._saved: list = []
        self.skipped: list = []

    def reset(self) -> None:
        """Zero the totals in place (call between spans, e.g. at window
        start)."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` inside a span charged to ``layer``."""
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        setattr(span, MARK, layer)
        return span

    def wrap_callback(self, callback: Callable) -> Callable:
        """An event callback charged to the package that defines it.

        Callbacks that are already wrapped entry points, and callbacks
        from outside ``repro``, are returned unchanged.
        """
        target = getattr(callback, "__func__", callback)
        if getattr(target, MARK, None):
            return callback
        layer = layer_of_module(getattr(target, "__module__", None) or "")
        if layer is None:
            return callback
        return self.wrap(layer, callback)

    def install(self, targets=TARGETS) -> "LayerTracer":
        """Wrap every target and the scheduling calls of the engine.

        A target that no longer exists is skipped and listed in
        ``skipped``, so a refactor that moves an entry point degrades
        the split instead of breaking the run.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, layer in targets:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                cls = None
            current = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(current, property):
                replacement = property(self.wrap(layer, current.fget))
            elif callable(current):
                replacement = self.wrap(layer, current)
            else:
                self.skipped.append(f"{module_name}.{class_name}.{attr}")
                continue
            self._saved.append((cls, attr, current))
            setattr(cls, attr, replacement)
        from repro.sim.engine import Simulation

        for attr in ("at", "after"):
            original = Simulation.__dict__[attr]
            self._saved.append((Simulation, attr, original))
            setattr(Simulation, attr, self._scheduling(original))
        return self

    def _scheduling(self, original: Callable) -> Callable:
        wrap_callback = self.wrap_callback

        @functools.wraps(original)
        def schedule(sim, when, callback, *args):
            return original(sim, when, wrap_callback(callback), *args)

        return schedule

    def uninstall(self) -> None:
        """Restore every replaced attribute, innermost first."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def per_op(self, ops: int) -> dict:
        """``<layer>.self_us_per_op`` and ``<layer>.calls_per_op``."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_us_per_op"] = self.self_s[layer] * 1e6 / ops
            out[f"{layer}.calls_per_op"] = self.calls[layer] / ops
        return out
