"""In-process passes over a workload's commands: warm timing and traced runs.

Run as ``python inproc.py warm|trace COMMANDS`` where COMMANDS is a JSON list
of argument vectors for ``euvq.cli.main``. The child runs one pass untimed
and prints its exit codes and outputs as a JSON line. Then, for each JSON
request ``{"seconds", "min_passes", "traced"}`` read from standard input, it
times passes for that long and prints their times, exit codes and output
digests as a JSON line. It exits at end of input.

``trace`` wraps each public function and method of the euvq modules before
the first call, so first-call costs land in the first pass as a cold user
pays them; that pass's spans give the per-layer metrics. A request with
``"traced": false`` removes the wrappers first, so traced and untraced
passes give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
import traceback

MODULES = ("core", "absorption", "planewave", "cdf", "qarith", "spectro", "grid")
FFTN = "numpy.fft.fftn"
EIGSH = "scipy.sparse.linalg.eigsh"
APPLY_H = "grid.GridModel.apply_hamiltonian"

# Per-layer wall times: the outermost spans whose name is listed (or, for a
# name ending in ".", starts with it), summed.
TIMES = {
    "grid.ground_state_s": ("grid.ground_state",),
    "grid.gaussian_filter_s": ("grid.gaussian_filter",),
    "grid.evolve_s": ("grid.evolve",),
    "grid.continuum_project_s": ("grid.continuum_project",),
    "grid.kinetic_histogram_s": ("grid.kinetic_histogram",),
    "spectro.scene_from_dict_s": ("spectro.scene_from_dict",),
    "spectro.td_greens_s": ("spectro.td_greens",),
    "spectro.kramers_heisenberg_s": ("spectro.kramers_heisenberg",),
    "spectro.hadamard_shot_simulator_s": ("spectro.hadamard_shot_simulator",),
    "absorption.absorption_cost_s": ("absorption.absorption_cost",),
    "planewave.photoemission_cost_s": ("planewave.photoemission_cost",),
    "core.from_dict_s": ("core.AbsorptionSpec.from_dict", "core.PlaneWaveSpec.from_dict"),
    "cdf.double_factorize_s": ("cdf.double_factorize",),
    "cdf.givens_decompose_s": ("cdf.givens_decompose",),
    "qarith_s": ("qarith.",),
}
# Counts of spans named by the first entry, nested in a span named by the second.
COUNTS = {
    "grid.ground_state.h_applies": (APPLY_H, "grid.ground_state"),
    "grid.gaussian_filter.h_applies": (APPLY_H, "grid.gaussian_filter"),
    "grid.evolve.fft_calls": (FFTN, "grid.evolve"),
    "grid.eigsh_calls": (EIGSH, None),
    "spectro.td_greens.calls": ("spectro.td_greens", None),
}


# Values read from a call: span -> (metric, summed over calls?, value(arguments, result)).
HOOKS = {
    "spectro.td_greens": ("spectro.td_phase_evals", True,
                          lambda a, r: a["scene"].dim * (2 * a["weights"].j_max + 1)),
    "grid.gaussian_filter": ("grid.filter.success_p", False, lambda a, r: r[1]),
    "grid.continuum_project": ("grid.continuum.success_p", False, lambda a, r: r[1]),
    "grid.edge_density": ("grid.edge_density", False, lambda a, r: r),
}


def run_pass(main, commands: list[list[str]]) -> tuple[float, list[int], list[str]]:
    """Run every command through ``main`` with standard output captured."""
    codes, outputs = [], []
    start = time.perf_counter()
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed run, reported with its traceback
                traceback.print_exc()
                code = 1
        codes.append(code)
        outputs.append(buf.getvalue())
    return time.perf_counter() - start, codes, outputs


class Tracer:
    """Spans (name, parent, start, end) around every public euvq function and method.

    ``numpy.fft.fftn`` and the ``eigsh`` that ``grid`` imports are wrapped
    too, so FFT and eigensolver calls count where they happen.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook:
                metric, summed, read = hook
                value = read(signature.bind(*args, **kwargs).arguments, result)
                if summed:
                    value += self.values.get(metric, 0)
                self.values[metric] = value
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy

        modules = [importlib.import_module(f"euvq.{name}") for name in MODULES]
        wrapped = {}
        for module in modules:
            short = module.__name__.split(".")[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                    self._patch(module, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        # functions that another euvq module imported by name
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        self._patch(numpy.fft, "fftn", self._wrap(FFTN, numpy.fft.fftn))
        grid = importlib.import_module("euvq.grid")
        self._patch(grid, "eigsh", self._wrap(EIGSH, grid.eigsh))

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _ancestors(self, index: int):
        index = self.parents[index]
        while index >= 0:
            yield self.names[index]
            index = self.parents[index]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times, counts and observed values of the spans recorded so far."""
        def matches(prefixes, name):
            return any(name == p or (p.endswith(".") and name.startswith(p)) for p in prefixes)

        timed = {name: [m for m, prefixes in TIMES.items() if matches(prefixes, name)]
                 for name in set(self.names)}
        metrics = dict.fromkeys(TIMES, 0.0)
        for i, name in enumerate(self.names):
            for metric in timed[name]:
                if not any(metric in timed[a] for a in self._ancestors(i)):
                    metrics[metric] += self.ends[i] - self.starts[i]
        for metric, (name, within) in COUNTS.items():
            metrics[metric] = sum(
                1 for i, span in enumerate(self.names)
                if span == name and (within is None or within in self._ancestors(i)))
        for metric, _, _ in HOOKS.values():
            metrics[metric] = float(self.values.get(metric, 0.0))
        metrics["trace.spans"] = len(self.names)
        return metrics

    def self_times(self, top: int = 12) -> list[list]:
        """[name, calls, inclusive s, self s] of the spans with the most self time."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        table: dict[str, list] = {}
        for index, name in enumerate(self.names):
            row = table.setdefault(name, [name, 0, 0.0, 0.0])
            row[1] += 1
            row[2] += durations[index]
            row[3] += own[index]
        return sorted(table.values(), key=lambda row: -row[3])[:top]


def main(argv: list[str]) -> int:
    mode, commands = argv[0], json.loads(argv[1])
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    from euvq.cli import main as cli_main

    _, codes, outputs = run_pass(cli_main, commands)
    first = {"codes": codes, "outputs": outputs}
    if tracer:
        first["metrics"] = tracer.layer_metrics()
        first["self_times"] = tracer.self_times()
    print(json.dumps(first), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if tracer and not request["traced"]:
            tracer.uninstall()
        times, passes = [], []
        start = time.perf_counter()
        while len(times) < request["min_passes"] or time.perf_counter() - start < request["seconds"]:
            elapsed, codes, outputs = run_pass(cli_main, commands)
            times.append(elapsed)
            passes.append([codes, [hashlib.sha256(text.encode()).hexdigest()
                                   for text in outputs]])
        print(json.dumps({"times": times, "passes": passes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
