"""Toolkit for communicating processes over shared data.

Parse process specifications, execute their operational semantics into
transition systems, compare behaviours, check control requirements, and
synthesize guard-based supervisors.
"""

from .errors import (
    BudgetError,
    CpdError,
    Diagnostic,
    ModelError,
    ObserverError,
    SpecError,
    SynthesisError,
)
from .control import (
    GlobalSatisfaction,
    NonblockingResult,
    Violation,
    check_controllability,
    check_nonblocking,
    default_encapsulation,
    operational_root,
    renamed_plant,
    satisfies,
    satisfies_globally,
    supervised_plant,
)
from .parser import SystemSpec, parse, print_spec
from .ppf import instantiate_ppf, ppf_text
from .printer import (
    actionset_to_str,
    bool_to_str,
    data_to_str,
    requirement_to_str,
    term_to_str,
    update_to_str,
)
from .relations import (
    Counterexample,
    PlayStep,
    RelationResult,
    bisimilar,
    partial_bisim,
    simulated_by,
)
from .semantics import Configuration, Engine, xi_action_set, xi_rename
from .statespace import (
    DEFAULT_BUDGET,
    StateSpace,
    coreachable,
    explore,
    export,
)
from .synthesis import (
    SupervisorSpec,
    SynthesisReport,
    SynthesisSpace,
    VerificationReport,
    analyze,
    emit_supervisor,
    guards_from_space,
    integrate_supervisor,
    minimize_guard,
    synthesize,
    synthesize_from_space,
    verify_synthesis,
)
from .terms import (
    Action,
    ActionSet,
    Alt,
    And,
    BinOp,
    BoolExpr,
    BoolLit,
    Channel,
    Cmp,
    DataExpr,
    DEADLOCK,
    Deadlock,
    Declarations,
    EMPTY_UPDATE,
    Encap,
    EnumConst,
    EnumDomain,
    Environment,
    EventImplies,
    FALSE,
    Guard,
    Imp,
    IntLit,
    IntRange,
    Invariant,
    Not,
    Or,
    Par,
    Prefix,
    ProcessTerm,
    Requirement,
    Seq,
    Star,
    StateExcludesEvent,
    TERMINATION,
    TRUE,
    Termination,
    UpdateMap,
    Valuation,
    VarRef,
    VariableDecl,
    alt,
    canonical_id,
    classify_plant,
    classify_supervisor,
    completed,
    eval_bool,
    eval_data,
    free_variables,
    par,
    plant_violations,
    prefix,
    receive,
    send,
    supervisor_violations,
)

__version__ = "0.1.0"
