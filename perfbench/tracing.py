"""Spans and counts taken from outside the program.

The program looks up its layers as module attributes at call time, so
the tracer replaces those attributes with timing wrappers while it is
installed and puts the originals back afterwards. Spans are kept in
memory: (id, parent id, trial, name, start, end), with times in seconds
from the tracer's creation. The benchmark adds spans around its own calls
into each layer with `Tracer.span`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from nearfield_pae import baseline, engine, mcrb


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.trial = None
        self._stack = []
        self._saved = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, parent, self.trial, name, time.perf_counter() - self._t0, None]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record[5] = time.perf_counter() - self._t0

    def _patch(self, module, attr: str, wrapper_for):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_for(original))

    def wrap(self, module, attr: str, name: str, on_result=None):
        """Record a span around every call of ``module.attr``."""

        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        self._patch(module, attr, wrapper_for)

    def count_calls(self, module, attr: str, name: str):
        """Count calls of ``module.attr`` without a span."""

        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(module, attr, wrapper_for)

    def install(self):
        """Wrap every layer boundary that the per-layer metrics read."""
        counts = self.counts

        def on_laplace(fit):
            counts["laplace_ga_steps"] += fit.n_ga_steps
            counts["laplace_polish_steps"] += fit.n_polish_steps
            counts["laplace_converged"] += bool(fit.converged)
            counts["laplace_regularized"] += bool(fit.regularized)

        def on_pseudotrue(fit):
            counts["pseudotrue_converged"] += bool(fit.converged)

        def on_embedding(emb):
            counts["embedding_bytes"] += emb.nbytes

        for attr in (
            "aoa_module_pass",
            "fuse_antenna_position",
            "update_pose_messages",
            "feedback_messages",
            "final_map",
            "estimate_aoa_posteriors",
        ):
            self.wrap(engine, attr, f"engine.{attr}")
        self.wrap(engine, "laplace_fit", "engine.laplace_fit", on_laplace)
        self.count_calls(engine, "composite_vm_value", "composite_evals")
        self.wrap(baseline, "farfield_aoa", "baseline.farfield_aoa")
        self.wrap(baseline, "pose_from_aoas", "baseline.pose_from_aoas")
        self.wrap(mcrb, "pseudotrue_fit", "mcrb.pseudotrue_fit", on_pseudotrue)
        self.wrap(mcrb, "information_matrices", "mcrb.information_matrices")
        self.wrap(mcrb, "lower_bound", "mcrb.lower_bound")
        self.wrap(mcrb, "reduced_embedding", "mcrb.reduced_embedding", on_embedding)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self) -> tuple:
        """(seconds, calls) summed over the spans of each name."""
        seconds, calls = Counter(), Counter()
        for _, _, _, name, start, end in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls

    def self_seconds(self) -> Counter:
        """Per-name span time minus the time its direct child spans cover."""
        own = Counter()
        for _, parent, _, name, start, end in self.spans:
            own[name] += end - start
            if parent is not None:
                pname, pstart, pend = self.spans[parent][3:6]
                own[pname] -= end - start
        return own

    def write(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["id", "parent", "trial", "name", "start_s", "end_s"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "self_s": dict(self.self_seconds()),
                },
                fh,
            )
