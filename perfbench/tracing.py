"""Per-layer spans recorded from outside `lota`.

`Tracer.install()` replaces functions that `lota` looks up at call time
(module globals and two class attributes) with wrappers that record one
span per call. Each span's self time is its duration minus the time of
its child spans. Spans are aggregated in memory per key; nothing is
written during a run. `Tracer.uninstall()` restores the originals, so
traced and untraced rounds can alternate in one process.

A name that no longer exists is skipped with a warning on stderr, and
every metric that needs it is left out of the result instead of being
reported as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (span key, owner, attribute). An owner is a module path or
# "module:Class". Keys that share a name share one bucket.
TARGETS = (
    ("train", "lota.training", "train"),
    ("fwd_bwd", "lota.training", "_forward_backward_state"),
    ("clip", "lota.training", "_clip_group_norm_inplace"),
    ("update", "lota.training", "_rmsprop_update_inplace"),
    ("gather", "lota.models:Dataset", "take"),
    ("evaluate", "lota.harness", "evaluate"),
    ("topk", "lota.sparsity", "topk_keep_flat"),
    ("sparsify", "lota.sparsity", "sparsify"),
    ("apply_mask", "lota.sparsity", "apply_mask"),
    ("mask_io", "lota.sparsity", "save_mask"),
    ("mask_io", "lota.sparsity", "load_mask"),
    ("encode", "lota.adapter", "encode"),
    ("decode", "lota.adapter", "decode"),
    ("load_adapter", "lota.adapter", "load_adapter"),
    ("digest", "lota.params", "digest"),
    ("ckpt_io", "lota.params", "save_checkpoint"),
    ("ckpt_io", "lota.params", "load_checkpoint"),
    ("ties", "lota.merging", "ties_merge"),
    ("merge_lota", "lota.merging", "merge_lota"),
    ("grid", "lota.merging", "merge_grid_search"),
    ("seed", "lota.harness", "_sparsity_one_seed"),
    ("seed", "lota.harness", "_merging_one_seed"),
    ("make", "lota.tasks:SyntheticTaskSpec", "make"),
    ("cli", "lota.cli", "dispatch"),
)

# Child spans recorded only so that their time leaves the parent's self
# time; they belong to the benchmark, not to `lota`.
_HIDDEN = "bench_check"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.masked_updates = 0
        self.masked_update_ns = 0
        self.dense_update_ns = 0
        self.grid_cells = 0
        self.payload_bits = 0
        self.stored_values = 0
        self.frozen_violations = []
        self.missing = set()
        self.paused = False
        self._stack = []  # [key, start_ns, child_ns]
        self._patches = []  # (owner object, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, key: str) -> None:
        self._stack.append([key, time.perf_counter_ns(), 0])

    def _exit(self) -> int:
        key, start, child = self._stack.pop()
        elapsed = time.perf_counter_ns() - start
        if self._stack:
            self._stack[-1][2] += elapsed
        if key != _HIDDEN:
            self.self_ns[key] += elapsed - child
            self.total_ns[key] += elapsed
            self.calls[key] += 1
        return elapsed - child

    def _wrap(self, key: str, fn):
        tracer = self
        hooks = {
            "train": self._after_train,
            "update": self._after_update,
            "grid": self._after_grid,
            "encode": self._after_encode,
        }
        hook = hooks.get(key)

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_ns = tracer._exit()
            if hook is not None:
                hook(self_ns, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- per-key extras ----------------------------------------------------

    def _after_update(self, self_ns, args, kwargs, result):
        mask_arrays = args[4] if len(args) > 4 else kwargs.get("mask_arrays")
        if mask_arrays is None:
            self.dense_update_ns += self_ns
        else:
            self.masked_updates += 1
            self.masked_update_ns += self_ns

    def _after_grid(self, self_ns, args, kwargs, result):
        self.grid_cells += len(result.table)

    def _after_encode(self, self_ns, args, kwargs, result):
        for rec in result.records:
            self.payload_bits += 8 * len(rec.gap_bytes) + 32 * rec.c
            self.stored_values += rec.c

    def _after_train(self, self_ns, args, kwargs, result):
        """Masked training must leave every frozen coordinate bitwise equal."""
        bound = dict(zip(("model", "dataset", "config"), args), **kwargs)
        model, config = bound["model"], bound["config"]
        if config.mask is None:
            return
        self._enter(_HIDDEN)
        try:
            final = result[0]
            for name, kept in config.mask.items():
                start = np.ascontiguousarray(model.params[name]).view(np.uint32)
                end = np.ascontiguousarray(final[name]).view(np.uint32)
                moved = int(np.count_nonzero(start[~kept] != end[~kept]))
                if moved:
                    self.frozen_violations.append((name, moved))
        finally:
            self._exit()

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        lota_modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lota" or n.startswith("lota."))
        ]
        for key, owner_name, attr in TARGETS:
            try:
                owner = _resolve(owner_name)
            except (ImportError, AttributeError):
                owner = None
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                if (owner_name, attr) not in self.missing:
                    print(
                        f"perfbench: warning: {owner_name}.{attr} not found; "
                        f"metrics that need it are left out",
                        file=sys.stderr,
                    )
                self.missing.add((owner_name, attr))
                continue
            wrapper = self._wrap(key, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # every lota module that imported the same function object
            for module in lota_modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- metrics -------------------------------------------------------------

    def _has(self, *keys: str) -> bool:
        missing_keys = {
            key for key, owner, attr in TARGETS if (owner, attr) in self.missing
        }
        return not missing_keys.intersection(keys)

    def layer_metrics(
        self, rounds: int, traced_wall_s: float, overhead_frac: float
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced round unless the unit says otherwise."""
        ms = 1e-6 * (1.0 / rounds)
        steps = self.calls["fwd_bwd"]

        def per(ns: int, count: int, scale: float) -> float:
            return ns * scale / count if count else 0.0

        dense_updates = self.calls["update"] - self.masked_updates
        candidates = {
            "models.fwd_bwd_us": (("fwd_bwd",), lambda: per(self.self_ns["fwd_bwd"], steps, 1e-3), "us"),
            "models.gather_us": (("gather",), lambda: per(self.self_ns["gather"], self.calls["gather"], 1e-3), "us"),
            "models.eval_ms": (("evaluate",), lambda: self.self_ns["evaluate"] * ms, "ms"),
            "models.eval_calls": (("evaluate",), lambda: self.calls["evaluate"] / rounds, "count"),
            "training.update_masked_us": (("update",), lambda: per(self.masked_update_ns, self.masked_updates, 1e-3), "us"),
            "training.update_dense_us": (("update",), lambda: per(self.dense_update_ns, dense_updates, 1e-3), "us"),
            "training.clip_us": (("clip",), lambda: per(self.self_ns["clip"], self.calls["clip"], 1e-3), "us"),
            "training.loop_self_us": (("train", "fwd_bwd", "clip", "update", "gather", "digest"), lambda: per(self.self_ns["train"], steps, 1e-3), "us"),
            "training.steps": (("fwd_bwd",), lambda: steps / rounds, "count"),
            "training.train_calls": (("train",), lambda: self.calls["train"] / rounds, "count"),
            "sparsity.topk_ms": (("topk",), lambda: self.self_ns["topk"] * ms, "ms"),
            "sparsity.topk_calls": (("topk",), lambda: self.calls["topk"] / rounds, "count"),
            "sparsity.mask_io_ms": (("mask_io",), lambda: self.self_ns["mask_io"] * ms, "ms"),
            "adapter.encode_ms": (("encode",), lambda: self.self_ns["encode"] * ms, "ms"),
            "adapter.decode_ms": (("decode",), lambda: self.self_ns["decode"] * ms, "ms"),
            "adapter.load_ms": (("load_adapter",), lambda: self.self_ns["load_adapter"] * ms, "ms"),
            "adapter.apply_ms": (("apply_mask",), lambda: self.self_ns["apply_mask"] * ms, "ms"),
            "adapter.bits_per_value": (("encode",), lambda: self.payload_bits / self.stored_values if self.stored_values else 0.0, "bits"),
            "params.digest_ms": (("digest",), lambda: self.self_ns["digest"] * ms, "ms"),
            "params.digest_calls": (("digest",), lambda: self.calls["digest"] / rounds, "count"),
            "params.ckpt_io_ms": (("ckpt_io",), lambda: self.self_ns["ckpt_io"] * ms, "ms"),
            "merging.ties_ms": (("ties", "topk", "digest"), lambda: self.self_ns["ties"] * ms, "ms"),
            "merging.merge_lota_ms": (("merge_lota",), lambda: self.total_ns["merge_lota"] * ms, "ms"),
            "merging.grid_cells": (("grid",), lambda: self.grid_cells / rounds, "count"),
            "harness.seed_s": (("seed",), lambda: self.total_ns["seed"] * 1e-9 / rounds, "s"),
            "harness.seed_overlap": (("seed",), lambda: self.total_ns["seed"] * 1e-9 / traced_wall_s, "ratio"),
            "cli.self_ms": (("cli",), lambda: self.self_ns["cli"] * ms, "ms"),
            "tasks.make_ms": (("make",), lambda: self.self_ns["make"] * ms, "ms"),
        }
        out = {
            name: (compute(), unit)
            for name, (needs, compute, unit) in candidates.items()
            if self._has(*needs)
        }
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out
