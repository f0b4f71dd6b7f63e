"""Outside-in layer trace of the samsbo package.

Wraps public functions at every module attribute they are bound to, since
``from .x import f`` copies the binding and patching ``x.f`` alone would miss
callers in other modules, and wraps methods on their class.  Each wrapper
records a span; spans nest through a stack, so a span's self time is its
duration minus the durations of the spans it directly encloses.  Nothing
inside the package changes: the wrappers call the original objects and pass
their results through untouched.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Span statistics per layer name plus named ratio counters."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.ratios: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, numerator: float, denominator: float) -> None:
        pair = self.ratios[name]
        pair[0] += numerator
        pair[1] += denominator

    def wrap(self, name: str, fn, observe=None):
        """Span-recording wrapper; ``observe(result)`` may add counters."""
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = stats[name]
                rec.calls += 1
                rec.self_s += elapsed - children[0]
                rec.durations.append(elapsed)
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, name: str, owners: list[object], attr: str, observe=None) -> None:
        """Replace ``attr`` on every owner by one shared wrapper of the original."""
        original = getattr(owners[0], attr)
        wrapper = self.wrap(name, original, observe)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{name}: {owner!r}.{attr} is bound to another object")
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Patch every traced layer of samsbo."""
    import samsbo
    from samsbo import benchmarks, bounds, gp, hyperposterior, kernels, safeopt, verify

    def on_hyper(result):
        tracer.count("hyperposterior.acceptance", result.diagnostics.acceptance_rate, 1)

    def on_cset(result):
        unique = len({m.key() for m in result.members})
        tracer.count("hyperposterior.cset_unique", unique, len(result.members))

    def on_predict(result):
        tracer.count("gp.predict_batch.points", len(result[0]), 1)

    def on_safe_set(result):
        tracer.count("safeopt.safe_frac", result.size(), len(result.grid))

    tracer.patch("hyperposterior.sample_hyperposterior", [hyperposterior, samsbo],
                 "sample_hyperposterior", on_hyper)
    tracer.patch("hyperposterior.confidence_set", [hyperposterior, samsbo],
                 "confidence_set", on_cset)
    tracer.patch("gp.log_marginal_likelihood", [gp, hyperposterior, samsbo],
                 "log_marginal_likelihood")
    tracer.patch("gp.fit", [gp, samsbo], "fit")
    tracer.patch("gp.predict_batch", [gp.Posterior], "predict_batch", on_predict)
    tracer.patch("kernels.se_kernel_matrix",
                 [kernels, gp, hyperposterior, bounds, safeopt, verify], "se_kernel_matrix")
    tracer.patch("kernels.CorrelationMatrix", [kernels.CorrelationMatrix], "__post_init__")
    tracer.patch("bounds.scaling_bundle", [bounds, samsbo], "scaling_bundle")
    tracer.patch("bounds.nu_factor", [bounds, samsbo], "nu_factor")
    tracer.patch("safeopt.step", [safeopt, samsbo], "step")
    tracer.patch("safeopt.acquire_supplementary", [safeopt, samsbo], "acquire_supplementary")
    tracer.patch("safeopt.safe_set", [safeopt, samsbo], "safe_set", on_safe_set)
    tracer.patch("safeopt.acquire_main", [safeopt, samsbo], "acquire_main")
    tracer.patch("benchmarks.evaluate", [benchmarks.SyntheticProblem], "evaluate")
    # one layer name for both problem classes: share the stats, not the wrapper
    tracer.patch("benchmarks.evaluate", [benchmarks.LaserChainProblem], "evaluate")
    tracer.patch("benchmarks.find_safe_seed", [benchmarks], "find_safe_seed")
    tracer.patch("verify.bayesian_coverage", [verify, samsbo], "bayesian_coverage")
    tracer.patch("verify.frequentist_coverage", [verify, samsbo], "frequentist_coverage")
