"""Outside-in layer probe for the benchmark's traced runs.

``sitecustomize.py`` in this directory installs the probe at interpreter
start in every process whose ``PYTHONPATH`` names the directory and
whose environment sets ``PERFBENCH_PROBE_OUT``: the runner, the fleet
router and each fleet worker (workers inherit both).  No program file
changes.

As each ``repro`` module finishes importing, the probe replaces the
public functions listed in :data:`LAYERS` with timing wrappers, then
rebinds every copy it can find in loaded ``repro`` modules: names bound
by ``from X import f`` and functions captured as parameter defaults
(``MicroBatcher.__init__(resolve_events=queries.resolve_events, ...)``).

* A synchronous layer keeps a per-thread call stack, so its self time
  is its wall time minus the wall time of probed calls made inside it.
* A coroutine layer records the wall time of each await (it may
  interleave with others on the loop, so it has no self time).
* A layer whose result is ``None`` on a miss also counts its hits.

``SIGUSR1`` zeroes every counter (the benchmark sends it once set-up
traffic is done).  At exit each process writes ``<pid>.json`` into the
directory ``PERFBENCH_PROBE_OUT`` names.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import os
import signal
import sys
import threading
import time

#: Probed layers as ``(module, qualified name)``.
LAYERS = (
    ("repro.trace.spec92", "WorkloadProfile.profile_arrays"),
    ("repro.trace.spec92", "WorkloadProfile.trace"),
    ("repro.cache.reuse", "build_profile"),
    ("repro.cache.reuse", "derive_events"),
    ("repro.cache.events_store", "save"),
    ("repro.cache.events_store", "load"),
    ("repro.cache.reuse_store", "save"),
    ("repro.cache.reuse_store", "load"),
    ("repro.cache.events", "extract_events"),
    ("repro.cpu.replay", "replay"),
    ("repro.cpu.replay", "replay_mshr"),
    ("repro.cpu.replay", "replay_fs_sweep"),
    ("repro.cpu.processor", "TimingSimulator.run"),
    ("repro.trace.multiprogram", "pollution_sweep"),
    ("repro.cache.victim", "victim_hit_ratio_gain"),
    ("repro.cache.prefetch", "prefetch_covered_fraction"),
    ("repro.cache.multilevel", "stats_via_events"),
    ("repro.experiments._phi", "measured_phi_percentages"),
    ("repro.obs.manifest", "write_manifest"),
    ("repro.experiments.registry", "run_experiment"),
    ("repro.service.schemas", "validate_simulate"),
    ("repro.service.result_cache", "ResultCache.get"),
    ("repro.service.http11", "render_response"),
    ("repro.service.app", "ServiceApp.handle"),
    ("repro.service.batching", "MicroBatcher.submit"),
    ("repro.service.queries", "resolve_events"),
    ("repro.service.queries", "simulate_from_events"),
    ("repro.service.router", "Fleet.forward"),
)


def layer_name(module: str, qualname: str, package: str = "repro") -> str:
    """``repro.cache.reuse`` + ``build_profile`` -> ``cache.reuse.build_profile``."""
    return f"{module.removeprefix(package + '.')}.{qualname}"


class _Stat:
    __slots__ = ("calls", "hits", "wall_s", "self_s", "durations_s")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.calls = 0
        self.hits = 0
        self.wall_s = 0.0
        self.self_s = 0.0
        self.durations_s: list[float] = []

    def document(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Probe:
    """Wraps ``layers`` of ``package`` as their modules load."""

    def __init__(self, out_dir: str, layers=LAYERS, package: str = "repro") -> None:
        self.out_dir = out_dir
        self.package = package
        # Reentrant: SIGUSR1's reset runs on the main thread, possibly
        # while that thread is inside a wrapper's update.
        self.lock = threading.RLock()
        self.local = threading.local()
        self.stats: dict[str, _Stat] = {}
        self.missing: list[str] = []
        self.swaps: dict[int, tuple[object, object]] = {}
        self.by_module: dict[str, list[str]] = {}
        for module, qualname in layers:
            self.by_module.setdefault(module, []).append(qualname)

    def owns(self, module_name: str) -> bool:
        return module_name == self.package or module_name.startswith(self.package + ".")

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        lock = self.lock
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def timed_async(*args, **kwargs):
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    with lock:
                        stat.calls += 1
                        stat.wall_s += elapsed
                        stat.durations_s.append(elapsed)

            return timed_async

        stack_of = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    stat.calls += 1
                    stat.hits += result is not None
                    stat.wall_s += elapsed
                    stat.self_s += elapsed - children

        return timed

    # -- installation ---------------------------------------------------------

    def on_import(self, module) -> None:
        """Wrap a freshly imported module's layers, then rebind copies."""
        wrapped = False
        for qualname in self.by_module.get(module.__name__, ()):
            *path, attr = qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            name = layer_name(module.__name__, qualname, self.package)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            setattr(owner, attr, wrapper)
            self.swaps[id(fn)] = (fn, wrapper)
            wrapped = True
        targets = list(sys.modules.values()) if wrapped else [module]
        for target in targets:
            name = getattr(target, "__name__", "")
            if name == "__main__" or self.owns(name):
                self._rebind(target)

    def _swap(self, value):
        swap = self.swaps.get(id(value))
        return swap[1] if swap is not None and swap[0] is value else value

    def _rebind_defaults(self, fn) -> None:
        fn = inspect.unwrap(fn)
        if not inspect.isfunction(fn):
            return
        if fn.__defaults__:
            fn.__defaults__ = tuple(self._swap(v) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: self._swap(v) for k, v in fn.__kwdefaults__.items()}

    def _rebind(self, module) -> None:
        for attr, value in list(vars(module).items()):
            swapped = self._swap(value)
            if swapped is not value:
                setattr(module, attr, swapped)
            elif inspect.isfunction(value):
                self._rebind_defaults(value)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for member_name, member in list(vars(value).items()):
                    swapped = self._swap(member)
                    if swapped is not member:
                        setattr(value, member_name, swapped)
                    else:
                        self._rebind_defaults(getattr(member, "__func__", member))

    # -- reset and dump ---------------------------------------------------------

    def reset(self, *_signal_args) -> None:
        with self.lock:
            for stat in self.stats.values():
                stat.clear()

    def dump(self) -> None:
        document = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "missing": sorted(set(self.missing)),
            "layers": {name: stat.document() for name, stat in self.stats.items()},
        }
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _Loader:
    """Delegates to the real loader, then hands the module to the probe."""

    def __init__(self, inner, probe: Probe) -> None:
        self._inner = inner
        self._probe = probe

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        self._inner.exec_module(module)
        self._probe.on_import(module)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Finder:
    """A meta-path finder that re-wraps the loaders of the probe's package."""

    def __init__(self, probe: Probe) -> None:
        self._probe = probe

    def find_spec(self, name, path, target=None):
        if not self._probe.owns(name):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None and hasattr(spec.loader, "exec_module"):
            spec.loader = _Loader(spec.loader, self._probe)
        return spec


def install(out_dir: str) -> Probe:
    """Start probing this process; returns the probe."""
    probe = Probe(out_dir)
    sys.meta_path.insert(0, Finder(probe))
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "") in probe.by_module:
            probe.on_import(module)
    signal.signal(signal.SIGUSR1, probe.reset)
    atexit.register(probe.dump)
    return probe
