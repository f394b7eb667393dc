"""Command-line front end.

Subcommands: ``check`` (verdict for an allocation), ``solve`` (find an
allocation, each solver called from ``_solve_with`` alone), ``gen`` (write
the instance one row of ``_GENERATORS`` builds), ``brute`` (oracle scan).
Exit codes: 0 fair/found, 1 unfair/none, 2 validation error, 3 resource
budget exceeded or memory exhausted, 4 internal error (an answer failed its
own re-check, or any other crash: a crash never exits 1).  All randomness is
seeded explicitly and output is deterministic; the FDSI_STATE_BUDGET
environment variable overrides the default state budget of the exact solver.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import serialize
from .fairness import BASES, SA_EMPTY, WEIGHTED_BASES, Notion, Verdict, certify, is_sim
from .fairness import check as check_notion
from .model import (
    Allocation,
    BudgetExceededError,
    Instance,
    InternalError,
    ValidationError,
    exact_rational,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# the examples ``generators.canned`` builds, in the order of its builders; kept
# here, not in the generators, so that building the parser does not import them
CANNED_NAMES = (
    "bill-joe",
    "unaware-nonexistence",
    "alpha-nonexistence",
    "wsa-nonexistence",
    "tef1-vs-ef1",
    "sim-unfair",
    "chores-roundrobin",
)


def _witness_obj(inst: Instance, verdict: Verdict):
    w = verdict.witness
    if w is None:
        return None
    out = {"reason": w.reason}
    if w.observer is not None:
        out["observer"] = inst.agents[w.observer]
    if w.target is not None:
        out["target"] = inst.agents[w.target]
    if w.item is not None:
        out["item"] = inst.items[w.item]
    return out


def _notion_from_args(args) -> Notion:
    # an empty --alpha is a bad rational, not a missing one
    alpha = None if args.alpha is None else exact_rational(args.alpha, "rational")
    return serialize.parse_notion_spec(
        args.notion, sa=args.sa, alpha=alpha, wsa=args.wsa
    )


def _positive_int(text: str) -> int:
    """argparse type of the budgets and caps: a budget below 1 is invalid
    input, not a budget that runs out."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_notion_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sa", action="store_true", help="awareness override")
    parser.add_argument("--alpha", metavar="P/Q", help="alpha-scaled awareness")
    parser.add_argument("--wsa", action="store_true", help="proportional awareness")


def _cmd_check(args) -> int:
    inst = serialize.load_instance(args.instance)
    alloc = serialize.load_allocation(inst, args.allocation)
    sim = is_sim(inst, alloc)  # rejects an incomplete allocation first
    notion = _notion_from_args(args)
    verdict = check_notion(inst, alloc, notion)
    out = {"sim": sim.fair, "fair": verdict.fair, "witness": _witness_obj(inst, verdict)}
    print(serialize.dumps(out), end="")
    ok = verdict.fair and (sim.fair or not args.require_sim)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _solve_with(method, inst: Instance, notion: Notion, args) -> Allocation | None:
    """The one call of each solver, for ``--method`` and ``auto`` alike; each
    is read off its module, imported here, at call time.  Picking weighs the
    agents by the instance weights under a weighted base, else equally."""
    if method in ("exact", "brute"):
        from . import search

        if method == "exact":
            return search.exact_solve(inst, notion, state_budget=args.state_budget)
        return search.brute_force_solve(inst, notion, cap=args.brute_cap)
    if method == "sa-empty":
        from . import sa_empty

        return sa_empty.solve_sa_empty(inst, node_budget=args.node_budget)
    from . import allocators

    if method == "efl":
        return allocators.sa_efl_allocate(inst)
    weights = None if notion.base in WEIGHTED_BASES else (1,) * inst.n
    return allocators.sa_weighted_picking(inst, weights=weights)


def _certified(method, inst: Instance, notion: Notion, args) -> Allocation | None:
    """A polynomial method's answer if ``certify`` accepts it, else None."""
    alloc = _solve_with(method, inst, notion, args)
    return alloc if certify(inst, alloc, notion).fair else None


# auto's polynomial candidates in the order it tries them: (the bases a row
# applies to, the ``_solve_with`` method).  No row reads the awareness, as
# ``certify`` decides every answer.  With every agent aware the envy graph is
# fair under efl and picking under every other base but ef; picking is fair on
# binary valuations equal to the impacts, whatever the awareness, and often
# on unaware random instances, where the problem is NP-hard.
_CANDIDATES = ((("efl",), "efl"), (BASES, "picking"))


def _solve_auto(inst: Instance, notion: Notion, args) -> Allocation | None:
    """The first certified answer of the ``_CANDIDATES`` rows whose bases
    hold the notion's, whatever the agents' awareness, else the final
    solver: the type solver for ``sa-empty``, the brute-force oracle for the
    relaxed overrides (alpha, wsa), the exact state search for the rest."""
    for bases, method in _CANDIDATES:
        if notion.base in bases:
            alloc = _certified(method, inst, notion, args)
            if alloc is not None:
                return alloc
    relaxed = notion.awareness in ("alpha", "wsa")
    final = "sa-empty" if notion.base == SA_EMPTY else "brute" if relaxed else "exact"
    return _solve_with(final, inst, notion, args)


def _cmd_solve(args) -> int:
    inst = serialize.load_instance(args.instance)
    notion = _notion_from_args(args)
    method = args.method
    if method == "sa-empty" and notion.base != SA_EMPTY:
        raise ValidationError("method sa-empty only solves the sa-empty notion")
    if method == "auto":
        alloc = _solve_auto(inst, notion, args)
    elif method in ("picking", "efl"):
        alloc = _certified(method, inst, notion, args)
        if alloc is None:
            raise ValidationError(
                f"method {method} does not certify {notion.label()} on this "
                "instance; use the exact or brute method"
            )
    else:
        alloc = _solve_with(method, inst, notion, args)
    if alloc is None:
        return EXIT_NEGATIVE
    print(serialize.dumps(serialize.allocation_to_obj(inst, alloc)), end="")
    return EXIT_OK


def _int_rows(text: str, what: str, single: bool = False):
    """The ";"-separated rows of comma-separated integers in ``text``, empty
    rows skipped; with ``single``, the one row ``text`` is (no ";")."""
    rows = text.split(";")
    try:
        if single and len(rows) > 1:
            raise ValueError(text)
        ints = tuple(tuple(int(v) for v in row.split(",")) for row in rows if row or single)
    except ValueError as exc:
        raise ValidationError(f"bad {what} {text!r}") from exc
    return ints[0] if single else ints


def _weights(args) -> tuple[int, ...]:
    return _int_rows(args.weights, "weight list", single=True)


_WEIGHTS = ("--weights", {"required": True, "help": "comma-separated integers"})
_REQUIRED_INT = {"type": int, "required": True}

# generator -> (its flags in help order, each a name and its add_argument
# keywords; what it builds from the generators module and the parsed flags:
# an instance, or for ``example`` the canned example with its allocation)
_GENERATORS = {
    "partition-ef1": ([_WEIGHTS], lambda gen, a: gen.gen_partition_ef1(_weights(a))),
    "mixed": ([_WEIGHTS], lambda gen, a: gen.gen_mixed_awareness(_weights(a))),
    "wsa": ([_WEIGHTS], lambda gen, a: gen.gen_wsa(_weights(a))),
    "alpha": (
        [_WEIGHTS, ("--alpha", {"required": True, "help": "rational P/Q in (0,1)"})],
        lambda gen, a: gen.gen_alpha_sa(_weights(a), exact_rational(a.alpha, "rational")),
    ),
    "x3c": (
        [
            ("--universe", _REQUIRED_INT),
            ("--triples", {"required": True, "help": '"0,1,2;3,4,5;..."'}),
            ("--strict", {"action": "store_true"}),
        ],
        lambda gen, a: gen.gen_x3c_sa_empty(
            gen.RX3CInput(a.universe, _int_rows(a.triples, "triple list")), strict=a.strict
        ),
    ),
    "ef-embedding": (
        [
            ("--valuations", {"required": True, "help": 'binary rows "1,0;0,1"'}),
            ("--tef1", {"action": "store_true"}),
        ],
        lambda gen, a: gen.gen_ef_embedding(_int_rows(a.valuations, "matrix"), tef1=a.tef1),
    ),
    "example": (
        [
            ("name", {"choices": CANNED_NAMES}),
            ("--alpha", {"default": "1/2", "help": "rational for the alpha example"}),
            ("--allocation-out", {"help": "write the reference allocation here"}),
        ],
        lambda gen, a: gen.canned(a.name, alpha=exact_rational(a.alpha, "rational")),
    ),
    "random": (
        [
            *((flag, _REQUIRED_INT) for flag in ("--agents", "--items", "--v-max", "--s-max")),
            ("--w-max", {"type": int, "default": 1}),
            ("--seed", _REQUIRED_INT),
        ],
        lambda gen, a: gen.gen_random(a.agents, a.items, a.v_max, a.s_max, a.w_max, a.seed),
    ),
}


def _cmd_gen(args) -> int:
    from . import generators  # only this command needs it; keeps startup lean

    built = _GENERATORS[args.generator][1](generators, args)
    inst = built.instance if isinstance(built, generators.CannedExample) else built
    text = serialize.dumps(serialize.instance_to_obj(inst))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    if getattr(args, "allocation_out", None):  # only an example has the flag
        with open(args.allocation_out, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.allocation_to_obj(inst, built.allocation)))
    return EXIT_OK


def _cmd_brute(args) -> int:
    from . import search

    inst = serialize.load_instance(args.instance)
    # "any" accepts every candidate, so it needs no scan and takes no modifier
    notion = None if args.notion == "any" else _notion_from_args(args)
    if notion is None and (args.sa or args.wsa or args.alpha is not None):
        raise ValidationError("notion any takes no awareness modifier")
    if args.count:
        total = search.brute_force_count(
            inst, notion, require_sim=args.require_sim, cap=args.cap
        )
        print(serialize.dumps({"count": total}), end="")
        return EXIT_OK
    alloc = search.brute_force_solve(inst, notion, require_sim=args.require_sim, cap=args.cap)
    if alloc is None:
        return EXIT_NEGATIVE
    print(serialize.dumps(serialize.allocation_to_obj(inst, alloc)), end="")
    return EXIT_OK


def _add_check(sub) -> None:
    p = sub.add_parser("check", help="verdict for an instance + allocation")
    for name in ("instance", "allocation", "notion"):
        p.add_argument(name)
    _add_notion_flags(p)
    p.add_argument(
        "--require-sim",
        action="store_true",
        help="also require impact maximization for exit code 0",
    )
    p.set_defaults(func=_cmd_check)


def _add_solve(sub) -> None:
    p = sub.add_parser("solve", help="find a fair impact-maximizing allocation")
    p.add_argument("instance")
    p.add_argument("notion")
    _add_notion_flags(p)
    p.add_argument(
        "--method",
        choices=("auto", "picking", "efl", "exact", "brute", "sa-empty"),
        default="auto",
    )
    for flag in ("--state-budget", "--brute-cap", "--node-budget"):
        p.add_argument(flag, type=_positive_int, default=None)
    p.set_defaults(func=_cmd_solve)


def _add_gen(sub) -> None:
    gen_sub = sub.add_parser("gen", help="generate an instance file").add_subparsers(
        dest="generator", required=True
    )
    for name, (flags, _) in _GENERATORS.items():
        g = gen_sub.add_parser(name)
        for flag, keywords in flags:
            g.add_argument(flag, **keywords)
        g.add_argument("-o", "--output")
        g.set_defaults(func=_cmd_gen)


def _add_brute(sub) -> None:
    p = sub.add_parser("brute", help="oracle scan over candidate allocations")
    p.add_argument("instance")
    p.add_argument("notion", help='a notion spec or "any"')
    _add_notion_flags(p)
    p.add_argument("--count", action="store_true")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.add_argument("--no-require-sim", dest="require_sim", action="store_false")
    p.set_defaults(func=_cmd_brute, require_sim=True)


# each subcommand's parser builder, in the order the help lists them
_SUBCOMMANDS = {"check": _add_check, "solve": _add_solve, "gen": _add_gen, "brute": _add_brute}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the subcommand that ``argv[0]`` names,
    so that a call pays for one subparser, else all of them (no argv,
    ``--help``, an unknown command), whose help texts and usage errors are
    then the full parser's."""
    parser = argparse.ArgumentParser(
        prog="fdsi",
        description="Fair division with social impact: checkers, solvers, gadgets.",
    )
    name = argv[0] if argv else None
    lone = name in _SUBCOMMANDS
    # with one built, an "unrecognized arguments" usage line still names all
    every = "{" + ",".join(_SUBCOMMANDS) + "}" if lone else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for add in [_SUBCOMMANDS[name]] if lone else _SUBCOMMANDS.values():
        add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        pass  # reported after the handler, whose traceback holds the call's memory
    except Exception as exc:  # a crash is no verdict: exit 1 would read "none"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print("error: out of memory", file=sys.stderr)
    return EXIT_BUDGET


def entry() -> None:
    """The ``fdsi`` script and ``python -m fdsi``.  What is loaded by now
    lives until exit, so it is frozen: neither the collections during the
    call nor those at shutdown walk it again.  ``main`` never freezes, because
    a long-lived caller would then never collect what it froze."""
    gc.freeze()
    raise SystemExit(main())
