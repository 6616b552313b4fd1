"""Spans around cpd's public layer functions, recorded from outside cpd.

``install()`` replaces each target function wherever a loaded ``cpd``
module binds it, so calls made through any module (and recursive or
same-module calls through the module global) pass through one shim.  A span
is a dict with the function's layer name, start and end
(``time.perf_counter``), the index of the enclosing span and a few counts
read off the arguments or the result.  Spans stay in memory until the
sample ends.

``layer_metrics()`` turns the spans of one sample into the per-layer
figures; a layer's self time is its span durations minus those of its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function) -> span name; the span name's prefix is the layer
TARGETS = {
    ("cpd.parser", "parse"): "parser.parse",
    ("cpd.statespace", "explore"): "statespace.explore",
    ("cpd.synthesis", "analyze"): "synthesis.analyze",
    ("cpd.synthesis", "guards_from_space"): "synthesis.guards_from_space",
    ("cpd.synthesis", "minimize_guard"): "synthesis.minimize_guard",
    ("cpd.synthesis", "verify_synthesis"): "synthesis.verify_synthesis",
    ("cpd.relations", "partial_bisim"): "relations.partial_bisim",
    ("cpd.control", "satisfies_globally"): "control.satisfies_globally",
    ("cpd.control", "check_nonblocking"): "control.check_nonblocking",
    ("cpd.control", "check_controllability"): "control.check_controllability",
    ("cpd.parser", "print_spec"): "printer.print_spec",
}


def _root_key(root) -> str:
    """Identity of an exploration: the printed root term plus the initial
    valuation."""
    from cpd.printer import term_to_str

    return term_to_str(root.term) + " @ " + repr(sorted(root.env.alpha.items()))


def _before(name: str, args, kwargs) -> dict:
    """Attributes read off the arguments, outside the timed span."""
    first = args[0] if args else next(iter(kwargs.values()), None)
    if name == "parser.parse" and isinstance(first, str):
        return {"chars": len(first)}
    if name == "statespace.explore" and first is not None:
        return {"root": _root_key(first)}
    return {}


def _after(name: str, result) -> dict:
    """Counts read off the result, outside the timed span."""
    if name == "statespace.explore":
        return {"states": len(result.states), "transitions": len(result.transitions)}
    if name == "synthesis.analyze":
        return {"rounds": result.iterations}
    if name == "relations.partial_bisim":
        return {"witness_pairs": len(result.witness) if result.witness else 0}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            span.update(_before(name, args, kwargs))
            index = len(self.spans)
            self.spans.append(span)
            self._open.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            span.update(_after(name, result))
            return result

        return shim

    def install(self) -> list[str]:
        """Patch every binding of every target; return the targets not found."""
        shims = {}
        missing = []
        for (module, attr), name in TARGETS.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
            else:
                shims[id(fn)] = self.wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "cpd" and not modname.startswith("cpd."):
                continue
            for attr, value in list(vars(module).items()):
                shim = shims.get(id(value))
                if shim is not None and getattr(shim, "__wrapped__", None) is value:
                    setattr(module, attr, shim)
        return missing


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], verdict_s: float) -> dict[str, float]:
    """Per-layer figures of one traced sample (without the output-derived
    ``synthesis.guard_literals`` and the cross-sample ``trace_overhead_s``)."""
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s["name"] == name)

    def calls(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    explores = calls("statespace.explore")
    seen: set[str] = set()
    redundant_states = 0
    redundant_s = 0.0
    for s in explores:
        if s["root"] in seen:
            redundant_states += s["states"]
            redundant_s += s["end"] - s["start"]
        seen.add(s["root"])

    parse_s = total("parser.parse")
    explore_s = total("statespace.explore")
    states = sum(s["states"] for s in explores)
    transitions = sum(s["transitions"] for s in explores)
    top_level = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    return {
        "parser.parse_s": parse_s,
        "parser.chars_per_s": rate(sum(s["chars"] for s in calls("parser.parse")), parse_s),
        "statespace.explore_s": explore_s,
        "statespace.explore_calls": len(explores),
        "statespace.states": states,
        "statespace.transitions": transitions,
        "statespace.states_per_s": rate(states, explore_s),
        "statespace.transitions_per_s": rate(transitions, explore_s),
        "statespace.redundant_states": redundant_states,
        "statespace.redundant_s": redundant_s,
        "synthesis.fixpoint_s": total("synthesis.analyze"),
        "synthesis.fixpoint_rounds": sum(s["rounds"] for s in calls("synthesis.analyze")),
        "synthesis.guards_s": total("synthesis.guards_from_space"),
        "synthesis.minimize_s": total("synthesis.minimize_guard"),
        "synthesis.minimize_calls": len(calls("synthesis.minimize_guard")),
        "synthesis.verify_s": total("synthesis.verify_synthesis"),
        "relations.pbis_s": total("relations.partial_bisim"),
        "relations.pbis_calls": len(calls("relations.partial_bisim")),
        "relations.witness_pairs": sum(s["witness_pairs"] for s in calls("relations.partial_bisim")),
        "control.requirements_s": total("control.satisfies_globally"),
        "control.nonblocking_s": total("control.check_nonblocking"),
        "control.controllability_self_s": total("control.check_controllability"),
        "printer.print_s": total("printer.print_spec"),
        "cli.self_s": verdict_s - top_level,
    }
