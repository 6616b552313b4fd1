"""End-to-end acceptance gate.

Each test prints one verdict line (visible with -s or on failure) and
asserts it.  Reference guard formulas are transcribed fixtures; equivalence
is checked by exhaustive evaluation over reachable valuations.
"""

import random
import time
from collections import Counter, deque

from cpd.control import (
    check_controllability,
    check_nonblocking,
    renamed_plant,
    satisfies_globally,
    supervised_plant,
)
from cpd.errors import SynthesisError
from cpd.models import load, model_text
from cpd.parser import parse
from cpd.ppf import instantiate_ppf
from cpd.relations import bisimilar, partial_bisim
from cpd.semantics import Engine
from cpd.statespace import StateSpace, coreachable, explore
from cpd.synthesis import (
    analyze,
    guards_from_space,
    integrate_supervisor,
    synthesize,
    verify_synthesis,
)
from cpd.terms import (
    DEADLOCK,
    EventImplies,
    FALSE,
    Guard,
    Invariant,
    Par,
    StateExcludesEvent,
    TRUE,
    eval_bool,
)

from gen import random_plant_spec, random_small_space, random_term
from oracles import gfp_partial_bisim, numbered_space


def _report(n: int, desc: str, ok: bool):
    print(f"criterion {n:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {n:02d} failed: {desc}"


def formula(model: str, text: str):
    """Parse a boolean formula in the variable scope of a bundled model."""
    sp = parse(model_text(model) + f"requirement {text};\n", "carrier.cpd")
    req = sp.requirements[-1]
    assert isinstance(req, Invariant)
    return req.condition


def reachable_alphas(ss: StateSpace):
    return {conf.env.alpha for conf in ss.states}


def equivalent_over(alphas, left, right) -> int:
    return sum(1 for a in alphas if eval_bool(a, left) != eval_bool(a, right))


class TestCaseStudyGuards:
    def test_criterion_01_guard_reproduction(self, tmp_path):
        from cpd.cli import main

        references = {
            "SchOper": formula("ppf_1_1", "PC = 2 /\\ TPM = 1 \\/ PC = 3"),
            "OpStart": formula("ppf_1_1", "CPM = 1 /\\ MS = 3"),
            "Stb2Run": formula("ppf_1_1", "MS != 3 /\\ TPM = 2 /\\ MO != 2"),
            "Run2Stb": formula("ppf_1_1", "MS != 3 /\\ TPM = 1 \\/ MS = 3"),
        }
        model = tmp_path / "cell.cpd"
        model.write_text(model_text("ppf_1_1"))
        started = time.monotonic()
        import json
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["synth", str(model), "--format", "json"])
        elapsed = time.monotonic() - started
        assert code == 0
        payload = json.loads(out.getvalue())
        spec = load("ppf_1_1")
        alphas = reachable_alphas(explore(renamed_plant(spec), spec.declarations))
        assert len(alphas) == 144
        mismatches = 0
        for name, ref in references.items():
            got = formula("ppf_1_1", payload["report"]["guards"][name])
            mismatches += equivalent_over(alphas, got, ref)
        _report(1, "production-cell guards match the transcribed references "
                   f"on all {len(alphas)} reachable valuations "
                   f"({elapsed:.1f}s < 60s)",
                mismatches == 0 and elapsed < 60.0)


class TestSupervisedCell:
    def space(self):
        spec = load("ppf_1_1")
        return explore(supervised_plant(spec), spec.declarations)

    def test_criterion_02_initial_state_behavior(self):
        ss = self.space()
        from_initial = [ss.actions[a].channel.name for a, _ in ss.succ[ss.initial]]
        anywhere = {a.channel.name for _, a, _ in ss.transitions}
        _report(2, "supervised cell: no Stb2Run transition leaves the initial "
                   "state though the channel fires elsewhere",
                "Stb2Run" not in from_initial and "Stb2Run" in anywhere)

    def test_criterion_03_controllability(self):
        def controllability(spec):
            return check_controllability(
                explore(supervised_plant(spec), spec.declarations),
                explore(renamed_plant(spec), spec.declarations))

        spec = load("ppf_1_1")
        transcribed = controllability(spec)
        merged = integrate_supervisor(spec, synthesize(spec))
        synthesized = controllability(merged)
        broken = controllability(load("ppf_1_1_tampered"))
        trail_ok = (broken.counterexample is not None
                    and len(broken.counterexample.trail()) >= 1)
        _report(3, "controllability passes with transcribed and synthesized "
                   "supervisors; the tampered fixture fails with a trail",
                transcribed.holds and synthesized.holds
                and not broken.holds and trail_ok)

    def test_criterion_04_global_requirements(self):
        spec = load("ppf_1_1")
        supervised = satisfies_globally(self.space(), list(spec.requirements))
        bare = explore(renamed_plant(spec), spec.declarations)
        unsupervised = satisfies_globally(bare, list(spec.requirements))
        trace_ok = (unsupervised.trace is not None
                    and unsupervised.violations
                    and bare.trace_to(unsupervised.violations[0].state)
                    == unsupervised.trace)
        _report(4, "all five requirements hold under supervision and fail "
                   "on the bare renamed plant with a concrete trace",
                supervised.holds and not unsupervised.holds and bool(trace_ok))

    def test_criterion_05_nonblocking(self):
        ss = self.space()
        result = check_nonblocking(ss)
        _report(5, "supervised cell is nonblocking: reachable equals "
                   "coreachable exactly",
                result.holds and coreachable(ss) == set(range(len(ss))))


class TestVehicle:
    def test_criterion_06_vehicle_guards(self):
        spec = load("agv")
        sup = synthesize(spec)
        alphas = reachable_alphas(explore(renamed_plant(spec), spec.declarations))
        by_name = {c.name: g for c, g in sup.guards.items()}
        mism = equivalent_over(alphas, by_name["gotoA"], formula("agv", "L != A"))
        mism += equivalent_over(alphas, by_name["gotoB"], formula("agv", "L != B"))
        ss = explore(supervised_plant(spec), spec.declarations)
        dom = spec.declarations.var_map["L"].domain
        stray = 0
        for src, action, _ in ss.transitions:
            where = dom.render(ss.states[src].env.alpha["L"])
            if action.channel.name == "gotoA" and where == "A":
                stray += 1
            if action.channel.name == "gotoB" and where == "B":
                stray += 1
        _report(6, "vehicle guards are L != A / L != B on reachable "
                   "valuations and no gotoX leaves a state with L = X",
                mism == 0 and stray == 0)


class TestScaling:
    def test_criterion_07_wider_cell(self):
        spec = instantiate_ppf(2, [2, 2])
        syn = analyze(spec)  # default state budget
        sup = guards_from_space(spec, syn)
        ver = verify_synthesis(spec, sup, syn.space)
        _report(7, "PPF(2,[2,2]) synthesizes inside the default budget and "
                   f"verification passes all three checks "
                   f"({ver.supervised_states} supervised states)",
                ver.ok())


class TestRelationOracles:
    def test_criterion_08_brute_force_agreement(self):
        rng = random.Random(1008)
        agree = 0
        for _ in range(500):
            left = random_small_space(rng)
            right = random_small_space(rng)
            assert len(left) <= 6 and len(right) <= 6
            sim = partial_bisim(left, right, "none").holds
            bis = partial_bisim(left, right, "all").holds
            if (sim == gfp_partial_bisim(left, right, "none")
                    and bis == gfp_partial_bisim(left, right, "all")):
                agree += 1
        _report(8, "partial bisimulation agrees with the brute-force "
                   f"checkers on {agree}/500 random pairs",
                agree == 500)


class TestSemanticsProperties:
    def space(self, t):
        from gen import REL_DECLS

        return explore(Engine(REL_DECLS).initial(t), REL_DECLS)

    def test_criterion_09_property_suite(self):
        from cpd.semantics import Configuration
        from cpd.terms import ActionSet, Encap
        from gen import REL_DECLS

        rng = random.Random(1009)
        eng = Engine(REL_DECLS)

        neutrality = 0
        for _ in range(200):
            t = random_term(rng)
            if (bisimilar(self.space(Guard(TRUE, t)), self.space(t)).holds
                    and bisimilar(self.space(Guard(FALSE, t)),
                                  self.space(DEADLOCK)).holds):
                neutrality += 1

        encap_exact = 0
        for _ in range(200):
            t = random_term(rng)
            bare = self.space(t)
            seen = sorted({a for _, a, _ in bare.transitions},
                          key=lambda a: a.sort_key())
            blocked = ActionSet(actions=tuple(
                a for a in seen if rng.random() < 0.5))
            wrapped = explore(eng.initial(Encap(blocked, t)), REL_DECLS)
            ok = True
            for conf in wrapped.states:
                inner = eng.step(Configuration(conf.term.body, conf.env))
                want = sorted((a.sort_key(), c.env.alpha.values_tuple)
                              for a, c in inner if a not in blocked)
                got = sorted((a.sort_key(), c.env.alpha.values_tuple)
                             for a, c in eng.step(conf))
                if want != got:
                    ok = False
                    break
            encap_exact += ok

        arity = 0
        for _ in range(200):
            left = random_term(rng, depth=2)
            right = random_term(rng, depth=2)
            root = eng.initial(Par(left, right))
            space = explore(root, REL_DECLS, budget=200)
            ok = True
            for conf in space.states:
                term = conf.term
                if not isinstance(term, Par):
                    continue
                lsteps = eng.step(Configuration(term.left, conf.env))
                rsteps = eng.step(Configuration(term.right, conf.env))
                expected = Counter()
                for a, _ in lsteps:
                    expected[(a.channel.name, a.senders, a.receivers)] += 1
                for a, _ in rsteps:
                    expected[(a.channel.name, a.senders, a.receivers)] += 1
                for la, lc in lsteps:
                    for ra, rc in rsteps:
                        if la.channel != ra.channel:
                            continue
                        shared = lc.env.rho & rc.env.rho
                        if any(lc.env.alpha[x] != rc.env.alpha[x] for x in shared):
                            continue
                        expected[(la.channel.name, la.senders + ra.senders,
                                  la.receivers + ra.receivers)] += 1
                actual = Counter(
                    (a.channel.name, a.senders, a.receivers)
                    for a, _ in eng.step(conf))
                if actual != expected:
                    ok = False
                    break
            arity += ok

        commute = 0
        for _ in range(200):
            l = random_term(rng, depth=2)
            r = random_term(rng, depth=2)
            if bisimilar(self.space(Par(l, r)), self.space(Par(r, l))).holds:
                commute += 1

        reflexive = 0
        for _ in range(200):
            ss = random_small_space(rng)
            b = rng.choice(("none", "uncontrollable", "all"))
            reflexive += partial_bisim(ss, ss, b).holds

        from cpd.terms import Alt, EMPTY_UPDATE, Prefix, TERMINATION, send
        from gen import REL_CHANNELS

        transitive = 0
        for _ in range(200):
            t = random_term(rng)
            q = Prefix(send(REL_CHANNELS[1]), EMPTY_UPDATE, random_term(rng))
            r = Prefix(send(REL_CHANNELS[2]), EMPTY_UPDATE, random_term(rng))
            small = self.space(t)
            mid = self.space(Alt(t, q))
            big = self.space(Alt(Alt(t, q), r))
            if (partial_bisim(small, mid, "none").holds
                    and partial_bisim(mid, big, "none").holds
                    and partial_bisim(small, big, "none").holds):
                transitive += 1

        monotone = 0
        for _ in range(200):
            left = random_small_space(rng)
            right = random_small_space(rng)
            holds = {b: partial_bisim(left, right, b).holds
                     for b in ("none", "uncontrollable", "all")}
            implication = ((not holds["all"] or holds["uncontrollable"])
                           and (not holds["uncontrollable"] or holds["none"]))
            monotone += implication

        counts = {
            "guard neutrality": neutrality,
            "encapsulation exactness": encap_exact,
            "sync arity arithmetic": arity,
            "parallel commutativity": commute,
            "reflexivity": reflexive,
            "transitivity": transitive,
            "monotonicity": monotone,
        }
        _report(9, "semantics properties each hold on 200 random instances: "
                   + ", ".join(f"{k} {v}/200" for k, v in counts.items()),
                all(v == 200 for v in counts.values()))


def enabled_controllable(ss, state):
    """The controllable channels with a step out of the state, in step order."""
    actions = [ss.actions[a] for a, _ in ss.succ[state]]
    return dict.fromkeys(a.channel for a in actions if a.channel.controllable)


def induced_edges(syn, extra):
    base = syn.space
    edges = []
    for src in range(len(base.states)):
        out = []
        for a, dst in base.succ[src]:
            action = base.actions[a]
            ch = action.channel
            if ch.controllable and not (syn.allowed(src, ch)
                                        or (src, ch) in extra):
                continue
            out.append((action, dst))
        edges.append(out)
    return edges


def graph_reachable(edges, initial):
    seen = {initial}
    queue = deque([initial])
    while queue:
        s = queue.popleft()
        for _, d in edges[s]:
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return seen


def graph_requirements_ok(spec, base, edges, reach):
    for s in reach:
        alpha = base.states[s].env.alpha
        enabled = {a for a, _ in edges[s]}
        for r in spec.requirements:
            if isinstance(r, Invariant):
                if not eval_bool(alpha, r.condition):
                    return False
                continue
            if isinstance(r, EventImplies):
                excluded = not eval_bool(alpha, r.condition)
            elif isinstance(r, StateExcludesEvent):
                excluded = eval_bool(alpha, r.condition)
            if excluded and r.action in enabled:
                return False
    return True


def graph_nonblocking_ok(base, edges, reach):
    pred = {s: [] for s in reach}
    for s in reach:
        for _, d in edges[s]:
            if d in reach:
                pred[d].append(s)
    alive = set(base.marked) & reach
    queue = deque(alive)
    while queue:
        s = queue.popleft()
        for p in pred[s]:
            if p not in alive:
                alive.add(p)
                queue.append(p)
    return alive == reach


def graph_controllability_ok(base, edges, reach):
    order = sorted(reach)
    remap = {s: i for i, s in enumerate(order)}
    succ = [[(a, remap[d]) for a, d in edges[s] if d in reach] for s in order]
    sub = numbered_space(
        declarations=base.declarations,
        states=[base.states[s] for s in order],
        initial=remap[base.initial],
        marked={remap[s] for s in base.marked if s in reach},
        succ=succ,
    )
    return partial_bisim(sub, base, "uncontrollable").holds


class TestSynthesisSoundness:
    def test_criterion_10_soundness_and_maximality(self):
        rng = random.Random(1010)
        plants = 0
        candidates_checked = 0
        while plants < 100:
            spec = random_plant_spec(rng)
            try:
                syn = analyze(spec)
                sup = guards_from_space(spec, syn)
            except SynthesisError:
                continue
            plants += 1
            assert verify_synthesis(spec, sup, syn.space).ok()

            if len(syn.space) > 200:
                continue
            base_edges = induced_edges(syn, frozenset())
            reach = graph_reachable(base_edges, syn.space.initial)
            # the synthesized graph itself must pass all three at graph level
            assert graph_requirements_ok(spec, syn.space, base_edges, reach)
            assert graph_nonblocking_ok(syn.space, base_edges, reach)
            assert graph_controllability_ok(syn.space, base_edges, reach)

            for state in sorted(reach):
                for channel in enabled_controllable(syn.space, state):
                    if syn.allowed(state, channel):
                        continue
                    extra = frozenset({(state, channel)})
                    edges = induced_edges(syn, extra)
                    wider = graph_reachable(edges, syn.space.initial)
                    still_fine = (
                        graph_requirements_ok(spec, syn.space, edges, wider)
                        and graph_nonblocking_ok(syn.space, edges, wider)
                        and graph_controllability_ok(syn.space, edges, wider))
                    assert not still_fine, (
                        f"pair ({state}, {channel.name}) could have been "
                        "allowed")
                    candidates_checked += 1
        _report(10, "100 random plants synthesize and verify; every one of "
                    f"{candidates_checked} disabled (state, event) pairs is "
                    "necessary",
                plants == 100 and candidates_checked > 0)
