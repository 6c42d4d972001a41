"""Spans around the calls into each slim module, and the reader that turns a
span file into the per-layer table.

Recording (child.py, traced runs only): ``Tracer.install`` wraps every public
module-level function of the layer modules, plus the methods named in
METHODS, and puts each wrapper wherever the function is looked up, so
``slim.runner.evaluate_slim`` and ``slim.system.map_weights`` are wrapped
along with their defining modules. Each call records a span: run id, span id,
parent span id, thread, name, start and end, in wall-clock time and in the
thread's CPU time. Parents are linked per thread, because design points run
in a thread pool. Spans stay in memory until
``dump``. A few hooks read counts from call arguments and results (pages
simulated, useful bytes, trace events, KV rows, accepted training steps); a
hook that raises is recorded in ``hook_errors`` instead of stopping the run,
and the benchmark counts it as a failed check.

Reading:

    python3 perfbench/spans.py SPAN_FILE [--run-s SECONDS]

prints, per span name, the calls, the total and self time (time not covered
by child spans) in wall-clock and in thread CPU time, and the self CPU time
as a share of run_s. Per-layer figures use self CPU time: in the thread pool
four threads share two cores and one interpreter lock, so a wall-clock span
also counts the time its thread waited for the lock.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import threading
from collections import defaultdict
from itertools import count
from time import perf_counter_ns, thread_time_ns

LAYERS = ("config", "runner", "system", "storage", "pim", "trace", "model",
          "predictor", "numerics", "container")
# methods the per-layer metrics need; other methods stay unwrapped so hot
# per-event helpers keep their time inside the function that loops over them
METHODS = {"model": ("Decoder.decode_step", "KVCache.stacked")}
FIELDS = ("run", "id", "parent", "thread", "name", "start_ns", "end_ns",
          "cpu_start_ns", "cpu_end_ns")


def _pages_and_bytes(args, result, add):
    add("storage.pages_read", result.raw_bytes / args["geo"].page_bytes)
    add("storage.raw_bytes", result.raw_bytes)
    add("storage.useful_bytes", result.useful_bytes)


HOOKS = {
    "storage.simulate_ffn_pass": _pages_and_bytes,
    "system.energy_report": lambda a, r, add: add("system.trace_events", len(a["events"])),
    "model.KVCache.stacked":
        lambda a, r, add: add("model.kv_rows_stacked", r[0].shape[0] + r[1].shape[0]),
    "predictor.train": lambda a, r, add: (add("predictor.steps_accepted", len(r[1]) - 1),
                                          add("predictor.epochs", a["epochs"])),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # FIELDS[1:], with the raw thread ident
        self.counters: dict[str, float] = defaultdict(float)
        self.hook_errors: dict[str, str] = {}
        self._ids = count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def _hooked(self, name, func, hook):
        sig = inspect.signature(func)

        def run_hook(args, kwargs, result):
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, self._add)
            except Exception as exc:  # recorded; the benchmark fails the run on it
                self.hook_errors[name] = repr(exc)
        return run_hook

    def wrap(self, name: str, func):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        hook = HOOKS.get(name)
        run_hook = self._hooked(name, func, hook) if hook else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            cpu_start = thread_time_ns()
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                cpu_end = thread_time_ns()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name, start, end,
                              cpu_start, cpu_end))
            if run_hook is not None:
                run_hook(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"slim.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(f"{layer}.{qual}", vars(cls)[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "slim" or mod_name.startswith("slim."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])

    def dump(self, path) -> None:
        threads: dict[int, int] = {}
        with open(path, "w") as fh:
            header = {"run": self.run_id, "fields": FIELDS,
                      "counters": dict(self.counters), "hook_errors": self.hook_errors}
            fh.write(json.dumps(header) + "\n")
            for sid, parent, ident, *rest in self.spans:
                thread = threads.setdefault(ident, len(threads))
                fh.write(json.dumps([self.run_id, sid, parent, thread, *rest]) + "\n")


# --- reading -----------------------------------------------------------------

def load(path) -> tuple[dict, list[list]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def _tree(spans: list[list]) -> tuple[dict, dict]:
    """Children of each span id, and each span's self time (its duration less
    its children's) as (wall-clock ns, thread CPU ns) by span id."""
    children: dict[int, list] = defaultdict(list)
    for sp in spans:
        children[sp[2]].append(sp)
    self_ns = {}
    for _, sid, _, _, _, start, end, cpu_start, cpu_end in spans:
        kids = children.get(sid, ())
        self_ns[sid] = (end - start - sum(k[6] - k[5] for k in kids),
                        cpu_end - cpu_start - sum(k[8] - k[7] for k in kids))
    return children, self_ns


def span_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, and total and self seconds in wall-clock
    (``total_s``, ``self_s``) and in thread CPU time (``cpu_s``,
    ``self_cpu_s``)."""
    _, self_ns = _tree(spans)
    stats: dict[str, dict] = {}
    for _, sid, _, _, name, start, end, cpu_start, cpu_end in spans:
        s = stats.setdefault(name, dict.fromkeys(
            ("calls", "total_s", "self_s", "cpu_s", "self_cpu_s"), 0))
        self_wall, self_cpu = self_ns[sid]
        s["calls"] += 1
        s["total_s"] += (end - start) * 1e-9
        s["self_s"] += self_wall * 1e-9
        s["cpu_s"] += (cpu_end - cpu_start) * 1e-9
        s["self_cpu_s"] += self_cpu * 1e-9
    return stats


def child_share(spans: list[list], root: str, layers: tuple[str, ...]) -> float:
    """Share of the ``root`` spans' CPU time covered by the self CPU time of
    their descendants in ``layers`` (the root's own self time not counted)."""
    children, self_ns = _tree(spans)
    total = covered = 0
    for sp in spans:
        if sp[4] != root:
            continue
        total += sp[8] - sp[7]
        todo = list(children[sp[1]])
        while todo:
            d = todo.pop()
            if d[4].split(".", 1)[0] in layers:
                covered += self_ns[d[1]][1]
            todo.extend(children[d[1]])
    return covered / total if total else 0.0


def format_table(stats: dict[str, dict], run_s: float | None) -> list[str]:
    lines = [f"{'span':<36} {'calls':>7} {'total_s':>9} {'self_s':>9} "
             f"{'cpu_s':>9} {'self_cpu_s':>10} {'cpu/run':>8}"]
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_cpu_s"]):
        share = f"{s['self_cpu_s'] / run_s:8.1%}" if run_s else f"{'-':>8}"
        lines.append(f"{name:<36} {s['calls']:>7} {s['total_s']:>9.4f} {s['self_s']:>9.4f} "
                     f"{s['cpu_s']:>9.4f} {s['self_cpu_s']:>10.4f} {share}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-span self time from a span file.")
    parser.add_argument("spans", help="span file written by a traced benchmark run")
    parser.add_argument("--run-s", type=float, default=None,
                        help="traced run_s, for the share column")
    args = parser.parse_args(argv)
    header, spans = load(args.spans)
    print(f"run {header['run']}: {len(spans)} spans")
    for line in format_table(span_stats(spans), args.run_s):
        print(line)
    for name, value in sorted(header["counters"].items()):
        print(f"counter {name} = {value:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
