"""Self-time tracing of calls into caadam's public functions.

``Tracer.install()`` replaces each attribute in ``TARGETS`` with a wrapper
that times the call and charges its *self* time (duration minus the time of
traced calls nested inside it) to a span name; ``Tracer.restore()`` puts the
original objects back.  Nothing in the package itself is modified on disk,
and an untraced run never sees a wrapper.

``nn.forward`` calls are attributed by what follows them inside the
training loop: a forward followed by ``backward`` is a training-step
forward, one followed by ``loss`` belongs to the epoch-end evaluation, and
any other (the final test-set evaluation) is counted as ``other``.

When a traced process forks pool workers, each worker starts from empty
totals on its first traced trial and writes them to ``dump_dir`` after every
trial; ``merge_dumps`` folds those files into the parent's totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from time import perf_counter_ns

# (owner, attribute, span).  The owner is a module path, or "module:Class"
# for a method.  Module-level names are patched where the caller looks them
# up (``caadam.train`` calls ``forward`` through its own namespace, the
# harness in ``caadam.bench`` calls ``train``, ``trial_setup`` and friends
# through its namespace).
TARGETS = (
    ("caadam.train", "forward", "nn.forward"),
    ("caadam.train", "backward", "nn.backward"),
    ("caadam.train", "loss", "nn.loss"),
    ("caadam.optim:Optimizer", "step", "optim.step"),
    ("caadam.nn:Network", "copy_weights", "train.snapshot"),
    ("caadam.bench", "train", "train.loop"),
    ("caadam.bench", "run_trial", "bench.trial"),
    ("caadam.bench", "trial_setup", "bench.trial_setup"),
    ("caadam.bench", "split_standardize", "data.split"),
    ("caadam.bench", "benchmark_regression", "data.build"),
    ("caadam.bench", "synth_classification", "data.build"),
    ("caadam.bench", "make_optimizer", "optim.make"),
    ("caadam.optim", "compute_scale_table", "scaling.table"),
    ("caadam.bench", "welch_t_test", "stats.welch"),
    ("caadam.bench", "build_report", "bench.report"),
    ("caadam.bench", "format_report_table", "bench.format"),
    ("caadam.bench", "save_trials", "cli.write"),
    ("caadam.bench", "save_timings", "cli.write"),
    ("caadam.bench", "save_report", "cli.write"),
)

FORWARD_STEP = "nn.forward.step"
FORWARD_EVAL = "nn.forward.eval"
FORWARD_OTHER = "nn.forward.other"


def resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Accumulates self time (ns) and call counts per span name."""

    def __init__(self, dump_dir: str | None = None):
        self.dump_dir = dump_dir
        self.ns: Counter = Counter()
        self.calls: Counter = Counter()
        self._stack: list[int] = []  # child time accumulated per open frame
        self._pending_forward: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._child = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for owner_path, attr, span in TARGETS:
                owner = resolve_owner(owner_path)
                if isinstance(owner, type) and attr not in vars(owner):
                    raise AttributeError(f"{owner_path} does not define {attr} itself")
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------

    def _wrap(self, span: str, fn):
        stack = self._stack
        record = self._record
        trial = span == "bench.trial"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if trial and os.getpid() != self._pid:
                self._start_child()
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                record(span, dt - child)
                if trial and self._child and self.dump_dir is not None:
                    self.dump()

        traced.perfbench_span = span
        return traced

    def _record(self, span: str, self_ns: int) -> None:
        if span == "nn.forward":
            self._settle_forward(FORWARD_OTHER)
            self._pending_forward = self_ns
            return
        if span == "nn.backward":
            self._settle_forward(FORWARD_STEP)
        elif span == "nn.loss":
            self._settle_forward(FORWARD_EVAL)
        self.ns[span] += self_ns
        self.calls[span] += 1

    def _settle_forward(self, kind: str) -> None:
        if self._pending_forward is not None:
            self.ns[kind] += self._pending_forward
            self.calls[kind] += 1
            self._pending_forward = None

    def totals(self) -> tuple[Counter, Counter]:
        """(self ns, calls) per span, with any unattributed forward settled."""
        self._settle_forward(FORWARD_OTHER)
        return Counter(self.ns), Counter(self.calls)

    # -- pool workers -------------------------------------------------------

    def _start_child(self) -> None:
        """First traced trial in a forked worker: drop the parent's totals."""
        self._pid = os.getpid()
        self._child = True
        self.ns.clear()
        self.calls.clear()
        self._pending_forward = None
        self._stack.clear()

    def dump(self) -> None:
        ns, calls = self.totals()
        path = os.path.join(self.dump_dir, f"trace-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"ns": ns, "calls": calls}, fh)
        os.replace(tmp, path)

    def merge_dumps(self) -> int:
        """Add every worker dump in ``dump_dir`` to the totals, deleting the
        files; returns the number of workers merged."""
        merged = 0
        for name in sorted(os.listdir(self.dump_dir)):
            if not (name.startswith("trace-") and name.endswith(".json")):
                continue
            path = os.path.join(self.dump_dir, name)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            self.ns.update(payload["ns"])
            self.calls.update(payload["calls"])
            os.remove(path)
            merged += 1
        return merged


def installed_wrappers() -> list[str]:
    """TARGETS attributes that currently hold a tracing wrapper (empty when
    no tracer is installed)."""
    return [
        f"{owner_path}.{attr}"
        for owner_path, attr, _ in TARGETS
        if hasattr(getattr(resolve_owner(owner_path), attr), "perfbench_span")
    ]
