"""Generator for the PPF family of plants, modelled on the paper's case
study: the maintenance procedures of the printing process of an Océ printer.

A model has one central process machine, a throughput regulator, and per
counter a scheduler, a deadline watchdog, and one machine operation per
op slot.  Counter i owns ops_per_counter[i-1] operations.  The
single-counter single-op instance drops all index suffixes.
"""

from __future__ import annotations

from typing import Sequence

from .parser import SystemSpec, parse


def ppf_text(counters: int, ops_per_counter: Sequence[int]) -> str:
    """Source text of the PPF model with the given shape."""
    if counters < 1:
        raise ValueError("counters must be at least 1")
    if len(ops_per_counter) != counters:
        raise ValueError("ops_per_counter must list one op count per counter")
    if any(k < 1 for k in ops_per_counter):
        raise ValueError("every counter needs at least one op")

    single = counters == 1 and ops_per_counter[0] == 1
    ci = (lambda i: "") if single else (lambda i: f"_{i}")
    cij = (lambda i, j: "") if single else (lambda i, j: f"_{i}_{j}")
    irange = range(1, counters + 1)

    def ops(i: int) -> range:
        return range(1, ops_per_counter[i - 1] + 1)

    lines: list[str] = []
    sch = [f"SchOper{ci(i)}" for i in irange]
    ost = [f"OpStart{cij(i, j)}" for i in irange for j in ops(i)]
    lines.append("controllable " + ", ".join(sch + ost + ["Stb2Run", "Run2Stb"]) + ";")
    unc = ["_InRun", "_InStb", "_NewJob", "_JobFin"]
    for i in irange:
        unc += [f"_OpFin{ci(i)}", f"_SoftDln{ci(i)}", f"_HardDln{ci(i)}", f"_ExOper{ci(i)}"]
    lines.append("uncontrollable " + ", ".join(unc) + ";")
    lines.append("")

    lines.append("var CPM : 1..4 = 1;")
    lines.append("var TPM : 1..2 = 1;")
    for i in irange:
        lines.append(f"var MS{ci(i)} : 1..3 = 1;")
        lines.append(f"var PC{ci(i)} : 1..3 = 1;")
        for j in ops(i):
            lines.append(f"var MO{cij(i, j)} : 1..2 = 1;")
    lines.append("")

    lines.append(
        "process CPM = (Stb2Run?[CPM := 2]._InRun![CPM := 3]"
        ".Run2Stb?[CPM := 4]._InStb![CPM := 1].1 + 1)*;"
    )
    for i in irange:
        ms, pc, fin = f"MS{ci(i)}", f"PC{ci(i)}", f"_OpFin{ci(i)}"
        lines.append(
            f"process {ms} = (SchOper{ci(i)}?[{ms} := 2]._ExOper{ci(i)}![{ms} := 3]"
            f".{fin}?[{ms} := 1].1 + 1)*;"
        )
        for j in ops(i):
            mo = f"MO{cij(i, j)}"
            lines.append(
                f"process {mo} = (OpStart{cij(i, j)}?[{mo} := 2].{fin}![{mo} := 1].1 + 1)*;"
            )
        lines.append(
            f"process {pc} = (_SoftDln{ci(i)}![{pc} := 2]"
            f".(_HardDln{ci(i)}![{pc} := 3].{fin}?[{pc} := 1].1 + {fin}?[{pc} := 1].1)"
            f" + {fin}?.1 + 1)*;"
        )
    lines.append("process TPM = (_NewJob![TPM := 2]._JobFin![TPM := 1].1 + 1)*;")
    lines.append("")

    # completed op reports and their partial synchronizations stay internal
    blocked = ", ".join(
        f"_OpFin{ci(i)}?, _OpFin{ci(i)}?_2, _OpFin{ci(i)}!?" for i in irange
    )
    parts = ["CPM"]
    parts += [f"MS{ci(i)}" for i in irange]
    parts += [f"MO{cij(i, j)}" for i in irange for j in ops(i)]
    parts += [f"PC{ci(i)}" for i in irange]
    parts.append("TPM")
    lines.append(f"process PPF = encap {{{blocked}}} ({' || '.join(parts)});")
    lines.append("plant PPF;")
    lines.append("")

    busy = " \\/ ".join(f"MO{cij(i, j)} = 2" for i in irange for j in ops(i))
    if sum(ops_per_counter) > 1:
        busy = f"({busy})"
    lines.append(f"requirement not (CPM != 1 /\\ {busy});")
    for i in irange:
        lines.append(
            f"requirement SchOper{ci(i)}!? => PC{ci(i)} = 2 /\\ TPM = 1 \\/ PC{ci(i)} = 3;"
        )
        for j in ops(i):
            lines.append(f"requirement OpStart{cij(i, j)}!? => MS{ci(i)} = 3;")
    idle = " /\\ ".join(f"MS{ci(i)} != 3" for i in irange)
    active = " \\/ ".join(f"MS{ci(i)} = 3" for i in irange)
    lines.append(f"requirement Stb2Run!? => TPM = 2 /\\ {idle};")
    lines.append(f"requirement Run2Stb!? => TPM = 1 \\/ {active};")
    return "\n".join(lines) + "\n"


def instantiate_ppf(counters: int, ops_per_counter: Sequence[int]) -> SystemSpec:
    """Build and parse the PPF model with the given shape."""
    name = f"ppf_{counters}_{'_'.join(str(k) for k in ops_per_counter)}.cpd"
    return parse(ppf_text(counters, ops_per_counter), name)
