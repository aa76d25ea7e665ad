"""In-memory span recorder that traces qrelay's layers from outside the package.

The recorder wraps every public function defined in each layer module
(`cli`, `chain`, `teleport`, `gates`, `core`) and replaces it at every
`qrelay` module that binds it by name, so a call made through
`chain.teleport_hop` or `qrelay.full_register_chain` is traced as well as
one made through the defining module. It also wraps
`PureState.__post_init__` on the class, which is where every state is
validated. Nothing under `src/` is edited; `uninstall()` restores the
original bindings.

A span holds a name, start, end, parent span and workload-operation id,
plus one amount that some wrappers count at the boundary (bytes touched,
or whether a measured outcome is used).
An operation is one trial, one path or one register: the spans of the
function named in `op_function` start a new operation, and every span
below one inherits its id (-1 outside any operation). Spans live in flat
typed arrays and are written out once, by `save`, when the run ends.
Self time is a span's duration minus the durations of its direct children;
calls are strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "chain", "teleport", "gates", "core")
AMP_BYTES = 16  # complex128
# PureState validation makes four passes per amplitude: copy (read and
# write), finiteness scan and norm
POST_INIT_PASSES = 4
# applying a gate reads the input state and writes the output state once
GATE_APPLY_PASSES = 2
CARRIER_STRIDE = 3  # qudits per relay block; the carrier is the first


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr, value


class SpanRecorder:
    """Records nested spans around qrelay's public functions while installed."""

    def __init__(self, qrelay_package, op_function: str | None = None):
        self._package = qrelay_package
        self._op_function = op_function
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.op_count = 0
        self._stack: list[tuple[int, int]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        bound = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == self._package.__name__ or name.startswith(self._package.__name__ + "."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"{self._package.__name__}.{layer}"]
            for attr, original in list(_public_functions(module)):
                label = f"{layer}.{attr}"
                traced = self._wrap(label, original, HOOKS.get(label))
                for holder in bound:
                    if getattr(holder, attr, None) is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, traced)
        state_cls = self._package.core.PureState
        original_init = state_cls.__post_init__
        self._patches.append((state_cls, "__post_init__", original_init))
        state_cls.__post_init__ = self._wrap("core.PureState", original_init, _state_bytes)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, label: str, fn, hook):
        if label not in self.names:
            self.names.append(label)
        name_id = self.names.index(label)
        is_op = label == self._op_function
        stack, name_of, parent, op, start, end, amount = (
            self._stack, self.name_of, self.parent, self.op, self.start, self.end, self.amount
        )
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_idx, op_id = stack[-1] if stack else (-1, -1)
            if is_op:
                op_id = recorder.op_count
                recorder.op_count += 1
            idx = len(start)
            stack.append((idx, op_id))
            name_of.append(name_id)
            parent.append(parent_idx)
            op.append(op_id)
            end.append(math.nan)
            amount.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                amount[idx] = hook(args, kwargs, result)
            return result

        return traced

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _state_bytes(args, kwargs, result) -> float:
    return POST_INIT_PASSES * AMP_BYTES * args[0].amps.size


def _gate_bytes(args, kwargs, result) -> float:
    state = args[0] if args else kwargs["state"]
    return GATE_APPLY_PASSES * AMP_BYTES * state.amps.size


def _outcome_used(args, kwargs, result) -> float:
    # the carrier outcome sets the Z^a correction; the ancilla outcome b is
    # recorded by the protocol but never read
    target = args[1] if len(args) > 1 else kwargs["target"]
    return float(target % CARRIER_STRIDE == 0)


def _report_bytes(args, kwargs, result) -> float:
    return len(result.encode())


# the amount a span records, computed after its call returns
HOOKS = {
    "gates.apply_1q": _gate_bytes,
    "gates.apply_2q": _gate_bytes,
    "teleport.measure_standard": _outcome_used,
    "cli.render_report": _report_bytes,
}


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(
        spans["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def top_ancestors(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a top-level span)."""
    top = np.arange(parent.size)
    while True:
        up = parent[top]
        if np.all(up < 0):
            return top
        top = np.where(up >= 0, up, top)


def percentile_us(durations: np.ndarray, q: float) -> float:
    """The q-th percentile in microseconds, or 0.0 when fewer than ten
    samples lie beyond it."""
    if durations.size * (1.0 - q / 100.0) < 10:
        return 0.0
    return float(np.percentile(durations, q)) * 1e6


def layer_metrics(recorder: SpanRecorder, root: str, hops_per_call: int) -> dict[str, float]:
    """Per-function and per-layer metrics, normalised per workload call.

    `root` names the traced entry point; each of its spans is one workload
    call. Counts and self times are divided by the number of calls;
    percentiles are over every span of the function.
    """
    spans = recorder.arrays()
    own = self_times(spans)
    root_id = recorder.names.index(root)
    is_root = (spans["name"] == root_id) & (spans["parent"] < 0)
    calls = int(is_root.sum())
    if calls == 0:
        raise ValueError(f"no top-level {root} span was recorded")
    # keep only spans inside a workload call, not the benchmark's own calls
    inside = is_root[top_ancestors(spans["parent"])]
    names = spans["name"][inside]
    duration = (spans["end"] - spans["start"])[inside]
    own = own[inside]
    amount = spans["amount"][inside]
    is_root = is_root[inside]
    out: dict[str, float] = {}
    per_call_amount: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name_id, label in enumerate(recorder.names):
        mine = names == name_id
        self_s = float(own[mine].sum()) / calls
        per_call_amount[label] = float(amount[mine].sum()) / calls
        out[f"{label}.calls"] = float(mine.sum()) / calls
        out[f"{label}.self_s"] = self_s
        out[f"{label}.p50_us"] = percentile_us(duration[mine], 50)
        out[f"{label}.p99_us"] = percentile_us(duration[mine], 99)
        layer_self[label.split(".", 1)[0]] += self_s
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    root_s = float(duration[is_root].sum()) / calls
    out["trace.root_s"] = root_s
    out["trace.self_sum_gap_s"] = abs(sum(layer_self.values()) - root_s)
    out["trace.spans_per_call"] = names.size / calls

    out["core.PureState.inits_per_hop"] = out["core.PureState.calls"] / hops_per_call
    out["core.PureState.bytes_computed"] = per_call_amount["core.PureState"]
    measured = out["teleport.measure_standard.calls"]
    used = per_call_amount["teleport.measure_standard"]
    out["teleport.measure_standard.used_ratio"] = used / measured if measured else 0.0
    apply_bytes = per_call_amount["gates.apply_1q"] + per_call_amount["gates.apply_2q"]
    apply_self = out["gates.apply_1q.self_s"] + out["gates.apply_2q.self_s"]
    out["gates.apply.bytes_computed"] = apply_bytes
    out["gates.apply.gbps_computed"] = apply_bytes / apply_self / 1e9 if apply_self else 0.0
    out["cli.render_report.bytes"] = per_call_amount["cli.render_report"]
    return out
