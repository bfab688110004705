"""Per-layer tracing from outside the library.

A :class:`Tracer` replaces public callables of ``uamm_lab`` with timing
wrappers, records one span per call (calls, inclusive time, self time) and a
few counters measured where the work happens, and puts every original back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it is being traced.

Self time is a span's duration minus the time of the wrapped calls made
inside it, so the self times of all spans add up to the traced time spent in
wrapped code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from decimal import Decimal

from uamm_lab import ConditionalLedger, UnfillableQuote

#: Span name -> "module:attribute" of the callable it wraps.  Functions are
#: patched in every ``uamm_lab`` module that imported them by name, so a call
#: through any of those names is counted.  ``ConditionalLedger.*`` expands to
#: every public method of the ledger.
TARGETS = {
    "uamm.swap_out": "uamm_lab.uamm:swap_out",
    "uamm.quote": "uamm_lab.uamm:UammMarket.quote",
    "uamm.buy": "uamm_lab.uamm:UammMarket.buy",
    "baseline.cpmm_swap": "uamm_lab.baseline:cpmm_swap",
    "baseline.quote": "uamm_lab.baseline:CpmmMarket.quote",
    "baseline.buy": "uamm_lab.baseline:CpmmMarket.buy",
    "fixedpoint.amount": "uamm_lab.fixedpoint:amount",
    "ledger": "uamm_lab.ledger:ConditionalLedger.*",
    "sim.simulate_one": "uamm_lab.sim:simulate_one",
    "sim.build_market": "uamm_lab.sim:build_market",
    "sim.run_market": "uamm_lab.sim:run_market",
    "metrics.summarize": "uamm_lab.metrics:summarize",
    "cli.main": "uamm_lab.cli:main",
}

BRANCHES = ("surplus", "straddle", "deficit", "zero")

#: Bettor wagers are rounded to whole cents with a one-cent floor, so a quote
#: for less than a cent is the simulator's overround probe, not a bet.
PROBE_WAGER = Decimal("0.01")


def classify_swap(d_in: float, f_in: float, f_out: float, r_out: float, tb: float) -> str:
    """Which branch of ``uamm.swap_out`` a call with these arguments takes.

    Mirrors the branch order of ``swap_out``: the zero-input / empty-pool
    early return, then straddle, then surplus, else deficit.
    """
    if d_in == 0.0 or r_out <= 0.0:
        return "zero"
    delta = f_in / f_out * d_in
    if r_out - delta <= tb <= r_out:
        return "straddle"
    if tb <= r_out:
        return "surplus"
    return "deficit"


def conservation_gaps(market, accounts, balance) -> list[Decimal]:
    """Per-outcome ``holdings + pool - locked``; all zero when conserved.

    ``accounts`` and ``balance`` are the ledger's unbound public methods,
    passed in so a tracer can read balances without counting the reads.
    """
    ledger = market.ledger
    holders = list(accounts(ledger))
    return [
        sum((balance(ledger, a, k) for a in holders), Decimal(0))
        + market.pool.r[k] - ledger.locked
        for k in market.spec.outcomes
    ]


def _resolve(target: str):
    """(owner, attribute) pairs named by a ``module:attr`` target."""
    mod_name, _, path = target.partition(":")
    module = importlib.import_module(mod_name)
    if "." not in path:
        return [(module, path)]
    cls_name, _, meth = path.partition(".")
    cls = getattr(module, cls_name)
    if meth != "*":
        return [(cls, meth)]
    return [
        (cls, name) for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.drift_max = {"uamm": 0.0, "baseline": 0.0}
        self.conservation_failures: list[str] = []
        self.missing: list[str] = []
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []
        self._last_quote: dict[int, object] = {}
        self._ledger_reads = None

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for span, target in TARGETS.items():
            try:
                pairs = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            for owner, attr in pairs:
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(target)
                    continue
                name = span if span != "ledger" else f"ledger.{attr}"
                wrapper = self._wrap(name, original)
                if inspect.ismodule(owner):
                    self._patch_everywhere(original, wrapper)
                else:
                    self._patch(owner, attr, wrapper)
        self._ledger_reads = (
            self._original(ConditionalLedger, "accounts"),
            self._original(ConditionalLedger, "balance"),
        )
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "uamm_lab" and not mod_name.startswith("uamm_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _original(self, owner, attr):
        for o, a, original in self._patches:
            if o is owner and a == attr:
                return original
        return getattr(owner, attr)

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        before = after = None
        if name == "uamm.swap_out":
            before = self._on_swap
        elif name in ("uamm.quote", "baseline.quote"):
            after = functools.partial(self._on_quote, name.split(".")[0])
        elif name in ("uamm.buy", "baseline.buy"):
            after = functools.partial(self._on_buy, name.split(".")[0])
        elif name == "sim.run_market":
            after = self._on_market

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            error = result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if after is not None:
                    after(args, kwargs, result, error)

        return wrapper

    # -- counters ----------------------------------------------------------------

    def _on_swap(self, args, kwargs) -> None:
        branch = classify_swap(*args, **kwargs)
        self.counts[f"uamm.swap_out.branch.{branch}"] += 1

    def _on_quote(self, layer, args, kwargs, quote, error) -> None:
        market, wager = args[0], _arg(args, kwargs, 2, "wager")
        probe = wager < PROBE_WAGER
        if error is not None:
            if isinstance(error, UnfillableQuote):
                kind = "probe" if probe else "quote"
                self.counts[f"{layer}.unfillable.{kind}"] += 1
            return
        self.counts[f"{layer}.quotes"] += 1
        if probe:
            self.counts[f"{layer}.probes"] += 1
        else:
            self._last_quote[id(market)] = quote

    def _on_buy(self, layer, args, kwargs, record, error) -> None:
        market = args[0]
        quote = self._last_quote.pop(id(market), None)
        if error is not None:
            if isinstance(error, UnfillableQuote):
                self.counts[f"{layer}.unfillable.buy"] += 1
            return
        self.counts[f"{layer}.buys"] += 1
        if quote is not None and quote.outcome == record.outcome:
            drift = abs(quote.odd - float(record.odd))
            self.drift_max[layer] = max(self.drift_max[layer], drift)

    def _on_market(self, args, kwargs, result, error) -> None:
        if error is not None:
            return
        market = args[0]
        gaps = conservation_gaps(market, *self._ledger_reads)
        self.counts[f"conservation.{market.engine}"] += 1
        if any(gaps):
            self.conservation_failures.append(
                f"{market.engine} {market.spec.market_id}: gaps {gaps}"
            )

    # -- report ------------------------------------------------------------------

    def fill_ratio(self, layer: str) -> float:
        quotes = self.counts[f"{layer}.quotes"]
        return self.counts[f"{layer}.buys"] / quotes if quotes else 0.0

    def exact_counts(self) -> dict:
        """Everything this run counted, which must repeat exactly at one seed."""
        return {**self.counts, **{f"{n}.calls": s[0] for n, s in self.spans.items()}}

    def span_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self_ms, inclusive us_per_call)."""
        return {
            name: (calls, self_s * 1e3, total_s * 1e6 / calls if calls else 0.0)
            for name, (calls, total_s, self_s) in self.spans.items()
        }


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]
