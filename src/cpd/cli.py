"""Command-line front end.

Exit codes are a stable contract: 0 pass, 1 failed check or diagnostics,
2 resource exhaustion (state budget, recursion depth, memory), 3 empty
synthesis.  Process terms are walked without recursion along their spines;
what can still reach the recursion limit is deeply nested parentheses, guard
chains, and data or boolean expressions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .control import (
    check_controllability,
    check_nonblocking,
    operational_root,
    renamed_plant,
    satisfies_globally,
    supervised_plant,
)
from .errors import BudgetError, CpdError, SpecError, SynthesisError
from .parser import parse, print_spec
from .ppf import ppf_text
from .relations import partial_bisim
from .statespace import DEFAULT_BUDGET, StateSpace, explore, export
from .synthesis import analyze, integrate_supervisor, synthesize_from_space, verify_synthesis


class _Parser(argparse.ArgumentParser):
    """Usage problems are diagnostics, not resource errors; keep exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="cpd", description="process specifications with data: "
                  "parse, explore, check, synthesize")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, budget: bool = True,
               formats: tuple[str, ...] = ("text", "json")) -> None:
        if formats:
            p.add_argument("--format", choices=formats, default="text",
                           help="output format")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="state budget (default: CPD_BUDGET or "
                           f"{DEFAULT_BUDGET})")
        p.add_argument("-o", "--output", default=None,
                       help="write the artifact to this file instead of stdout")

    p = sub.add_parser("parse", help="parse a file and echo the normalized spec")
    common(p, budget=False)
    p.add_argument("file")

    p = sub.add_parser("explore", help="enumerate the reachable state space")
    common(p, formats=("text", "json", "dot"))
    p.add_argument("file")
    p.add_argument("--unsupervised", action="store_true",
                   help="explore the renamed plant even if a supervisor is declared")
    p.add_argument("--rho-in-identity", action="store_true",
                   help="distinguish states that differ only in the written-variable set")

    p = sub.add_parser("check", help="verify requirements, controllability, "
                       "nonblockingness, or a partial bisimulation")
    common(p)
    p.add_argument("file")
    p.add_argument("which", nargs="?", default="all",
                   choices=["requirements", "controllability", "nonblocking",
                            "pbis", "all"])
    p.add_argument("--against", default=None, metavar="FILE",
                   help="second specification for the pbis check")
    p.add_argument("--bisim-actions", choices=["all", "none", "uncontrollable"],
                   default="all", help="action set B for the pbis check")
    p.add_argument("--no-encap-nonblocking", action="store_true",
                   help="check nonblockingness of the bare composition, "
                   "without the blocked set")
    p.add_argument("--unsupervised", action="store_true",
                   help="check the renamed plant even if a supervisor is declared")

    p = sub.add_parser("synth", help="synthesize a supervisor and verify it")
    common(p)
    p.add_argument("file")

    p = sub.add_parser("ppf", help="generate a model of the paper's printer "
                       "maintenance case (PPF family)")
    common(p, budget=False, formats=())
    p.add_argument("--counters", type=int, required=True)
    p.add_argument("--ops", required=True,
                   help="comma-separated operation counts, one per counter")
    return top


def _resolve_budget(value: int | None) -> int:
    if value is None:
        env = os.environ.get("CPD_BUDGET")
        try:
            value = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ValueError(f"CPD_BUDGET must be an integer, got {env!r}") from None
    if value < 1:
        raise SpecError.single("budget must be at least 1", "<args>")
    return value


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), path)


def cmd_parse(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    normalized = print_spec(spec)
    if args.format == "json":
        _emit(json.dumps({"diagnostics": [], "normalized": normalized},
                         indent=2), args.output)
    else:
        _emit(normalized, args.output)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    budget = _resolve_budget(args.budget)
    root = operational_root(spec, unsupervised=args.unsupervised)
    ss = explore(root, spec.declarations, budget,
                 rho_in_identity=args.rho_in_identity)
    counts = (f"states {len(ss.states)} transitions {sum(map(len, ss.succ))} "
              f"marked {len(ss.marked)}")
    if args.format == "text":
        _emit(counts, args.output)
        return 0
    artifact = export(ss, args.format)
    _emit(artifact, args.output)
    # keep streams unmixed: counts ride stderr when the artifact owns stdout
    print(counts, file=sys.stderr if args.output is None else sys.stdout)
    return 0


def _check_results(args: argparse.Namespace, spec) -> dict[str, dict]:
    budget = _resolve_budget(args.budget)
    which = args.which
    results: dict[str, dict] = {}

    if which == "pbis":
        if args.against is None:
            raise SpecError.single("pbis needs --against FILE to compare with",
                                   "<args>")
        other = _load(args.against)
        left = explore(operational_root(spec, args.unsupervised),
                       spec.declarations, budget)
        right = explore(operational_root(other, args.unsupervised),
                        other.declarations, budget)
        res = partial_bisim(left, right, args.bisim_actions)
        detail = "" if res.holds else res.counterexample.render(left, right)
        results["pbis"] = {"holds": res.holds, "detail": detail}
        return results

    wanted = [which] if which != "all" else [
        "requirements", "controllability", "nonblocking"]
    if which == "all" and spec.supervisor_name is None:
        # nothing to relate the plant against; the other checks still apply
        wanted.remove("controllability")
        print("note: no supervisor declared, skipping controllability",
              file=sys.stderr)
    # explored spaces by root kind: "supervised", "renamed" or "bare"
    spaces: dict[str, StateSpace] = {}

    def space(kind: str) -> StateSpace:
        if kind not in spaces:
            root = (renamed_plant(spec) if kind == "renamed" else
                    supervised_plant(spec, encapsulated=kind == "supervised"))
            spaces[kind] = explore(root, spec.declarations, budget)
        return spaces[kind]

    # the kind operational_root picks
    operational = ("renamed" if spec.supervisor_name is None or args.unsupervised
                   else "supervised")
    if "requirements" in wanted:
        ss = space(operational)
        sat = satisfies_globally(ss, list(spec.requirements))
        results["requirements"] = {"holds": sat.holds,
                                   "detail": "" if sat.holds else sat.render(ss)}
    if "controllability" in wanted:
        sup_ss, plant_ss = space("supervised"), space("renamed")
        res = check_controllability(sup_ss, plant_ss)
        detail = "" if res.holds else res.counterexample.render(sup_ss, plant_ss)
        results["controllability"] = {"holds": res.holds, "detail": detail}
    if "nonblocking" in wanted:
        bare = args.no_encap_nonblocking and spec.supervisor_name is not None
        target = space("bare" if bare else operational)
        nb = check_nonblocking(target)
        results["nonblocking"] = {"holds": nb.holds,
                                  "detail": "" if nb.holds else nb.render(target)}
    return results


def cmd_check(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    results = _check_results(args, spec)
    ok = all(r["holds"] for r in results.values())
    if args.format == "json":
        _emit(json.dumps({"checks": results, "ok": ok}, indent=2), args.output)
    else:
        lines = []
        for name, r in results.items():
            lines.append(f"{name}: {'pass' if r['holds'] else 'FAIL'}")
            if r["detail"]:
                lines.append(r["detail"])
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _load(args.file)
    budget = _resolve_budget(args.budget)
    syn = analyze(spec, budget)
    sup, report = synthesize_from_space(spec, syn)
    verification = verify_synthesis(spec, sup, syn.space, budget)
    integrated = integrate_supervisor(spec, sup)
    out_text = print_spec(integrated)
    payload = {
        "report": report.to_dict(),
        "verification": verification.verdicts(),
        "supervised_states": verification.supervised_states,
        "spec": out_text,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(out_text, args.output)
        summary = report.render() + "\nverification: " + ", ".join(
            f"{k}={'pass' if v else 'FAIL'}"
            for k, v in verification.verdicts().items())
        print(summary, file=sys.stderr if args.output is None else sys.stdout)
    return 0 if verification.ok() else 1


def cmd_ppf(args: argparse.Namespace) -> int:
    try:
        ops = [int(x) for x in args.ops.split(",") if x.strip()]
    except ValueError:
        raise SpecError.single("--ops wants comma-separated integers", "<args>")
    _emit(ppf_text(args.counters, ops), args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    handlers = {
        "parse": cmd_parse,
        "explore": cmd_explore,
        "check": cmd_check,
        "synth": cmd_synth,
        "ppf": cmd_ppf,
    }
    # an explored space lives to the end of the call, so the cyclic
    # collector's full passes over it free nothing: collect rarely, for
    # this call only, once the argument parser's cycles are freed
    thresholds = gc.get_threshold()
    gc.collect(1)
    gc.set_threshold(200_000, 30, 30)
    try:
        return handlers[args.command](args)
    except SpecError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return 1
    except (ValueError, OSError, CpdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetError):
            return 2
        return 3 if isinstance(exc, SynthesisError) else 1
    except (RecursionError, MemoryError) as exc:
        what = ("recursion limit reached: the specification nests too deeply"
                if isinstance(exc, RecursionError) else "out of memory")
        print(f"error: {what}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
