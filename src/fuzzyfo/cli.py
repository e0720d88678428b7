"""Command-line front end.

Every command is deterministic: identical invocations produce byte-identical
reports.  Exit codes: 0 clean completion (including honest `exhausted`
verdicts), 1 input errors, 2 internal consistency failures and any other
internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from . import chains as chains_mod
from . import decision, phi, reduction, semantics, syntax

BUDGET_ENV = "FUZZYFO_BUDGET"


class CliError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is exit 1
    def error(self, message):
        raise CliError(message)


def _decimal(text: str) -> int:
    """The argparse `type` of every integer option (`syntax.decimal`)."""
    try:
        return syntax.decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV, str(semantics.DEFAULT_BUDGET))
    try:
        budget = syntax.decimal(raw)
    except ValueError as exc:
        raise CliError(f"{BUDGET_ENV}: {exc}")
    if budget < 1:
        raise CliError(f"{BUDGET_ENV} must be at least 1, got {raw!r}")
    return budget


def _sum_of_squares(n: int) -> int:
    """1^2 + 2^2 + ... + n^2, for n >= 0."""
    return n * (n + 1) * (2 * n + 1) // 6


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")


def _load_vocab(args) -> Optional[syntax.Vocabulary]:
    if getattr(args, "vocab", None):
        return syntax.parse_vocabulary(_read_file(args.vocab))
    return None


def _load_formula(args, vocab: Optional[syntax.Vocabulary] = None) -> syntax.Formula:
    """The formula, parsed over vocab if given and otherwise over --vocab."""
    if getattr(args, "formula_file", None):
        text = _read_file(args.formula_file).strip()
    elif getattr(args, "formula", None):
        text = args.formula
    else:
        raise CliError("provide --formula or --formula-file")
    return syntax.parse(text, vocab or _load_vocab(args))


def _parse_chain_spec(spec: str) -> list[chains_mod.FiniteChain]:
    kind, _, arg = spec.partition(":")
    if kind == "file":
        return [chains_mod.parse_chain_file(_read_file(arg))]
    if kind not in ("luk", "godel", "enum"):
        raise CliError(f"unknown chain spec {spec!r} (use luk:k, godel:k, file:path, enum:size)")
    digits = arg.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise CliError(f"chain spec {spec!r}: size must be a decimal integer")
    if len(digits) > syntax.MAX_DIGITS:
        cap = chains_mod.DEFAULT_ENUM_CAP if kind == "enum" else chains_mod.MAX_NAMED_CHAIN_SIZE
        raise CliError(
            f"chain spec '{kind}:{arg[:12]}...': its {len(digits)}-digit size is outside 2..{cap}")
    size = int(arg)
    if kind == "luk":
        return [chains_mod.make_lukasiewicz_chain(size)]
    if kind == "godel":
        return [chains_mod.make_godel_chain(size)]
    if size < 2:
        raise CliError(f"size {size} below minimum 2")
    # every size is checked against the cap before any chain is built
    sizes = [chains_mod.enumerate_mtl_chains(s) for s in range(2, size + 1)]
    return [chain for chains in sizes for chain in chains]


def _load_chains(args) -> list[chains_mod.FiniteChain]:
    specs = getattr(args, "chain", None)
    if not specs:
        raise CliError("provide at least one --chain spec")
    out = []
    for spec in specs:
        out.extend(_parse_chain_spec(spec))
    return out


class Report:
    """Ordered key/value report, one rendering for `--format plain` and `records`."""

    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.items.append((key, str(value)))

    def render(self) -> str:
        lines = []
        for key, value in self.items:
            if "\n" in value:
                lines.append(f"{key}:")
                lines.extend("  " + ln for ln in value.splitlines())
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def _add_verdict(report: Report, verdict: decision.Verdict) -> None:
    report.add("outcome", verdict.kind)
    if verdict.decided is not None:
        report.add("decided", verdict.decided)
    if verdict.value is not None:
        report.add("value", verdict.value)
    if verdict.chain is not None:
        report.add("chain-size", verdict.chain.size)
    if verdict.structure is not None:
        report.add("witness", verdict.structure.describe())
    if verdict.reason:
        report.add("reason", verdict.reason)
    if verdict.bounds:
        report.add("bounds", verdict.bounds)


# -- subcommands ---------------------------------------------------------

def cmd_parse(args, budget: int) -> Report:
    formula = _load_formula(args)
    report = Report()
    report.add("formula", syntax.format_formula(formula))
    report.add("sentence", syntax.is_sentence(formula))
    report.add("literal", syntax.is_literal(formula))
    report.add("lattice-literal-combination", syntax.is_lattice_literal_combination(formula))
    matrix = formula  # purely universal as written: a forall prefix, then no quantifier
    while isinstance(matrix, syntax.Forall):
        matrix = matrix.body
    report.add("purely-universal", syntax.is_quantifier_free(matrix))
    report.add("relational", not syntax.vocabulary_of(formula).functions)
    return report


def cmd_eval(args, budget: int) -> Report:
    vocab = _load_vocab(args)
    formula = _load_formula(args, vocab)
    chains = _load_chains(args)
    if len(chains) != 1:
        raise CliError("eval needs exactly one chain")
    vocab = vocab or syntax.vocabulary_of(formula)
    structure = semantics.parse_structure_file(_read_file(args.structure), vocab)
    # the walk is priced as n^depth assignments, one binder at a time, so a
    # huge domain is refused before its power is built
    price = 1
    for depth in range(1, syntax.quantifier_depth(formula) + 1):
        price *= structure.domain_size
        if price > budget:
            raise semantics.BudgetExceededError(
                price, budget, f"assignments at quantifier depth {depth}")
    value = semantics.eval(chains[0], structure, formula)
    report = Report()
    report.add("formula", syntax.format_formula(formula))
    report.add("chain-size", chains[0].size)
    report.add("value", value)
    return report


_DECIDERS = {
    "taut0": decision.taut0_bounded,
    "tautlt1": decision.taut_lt1_bounded,
    "satpos": decision.sat_pos_bounded,
    "sat1": decision.sat1_bounded,
}


def cmd_decide(args, budget: int) -> Report:
    formula = _load_formula(args)
    chains = _load_chains(args)
    verdict = _DECIDERS[args.set](chains, formula, args.max_domain, budget=budget)
    report = Report()
    report.add("procedure", args.set)
    report.add("formula", syntax.format_formula(formula))
    _add_verdict(report, verdict)
    return report


def cmd_star(args, budget: int) -> Report:
    formula = _load_formula(args)
    syntax.vocabulary_of(formula)  # refuses a name read as two kinds of symbol
    starred = syntax.star_translate(formula)
    report = Report()
    report.add("input", syntax.format_formula(formula))
    report.add("star", syntax.format_formula(starred))
    return report


def cmd_herbrand(args, budget: int) -> Report:
    if args.vocab:
        vocab = syntax.parse_vocabulary(_read_file(args.vocab))
    elif args.formula or args.formula_file:
        vocab = syntax.vocabulary_of(_load_formula(args))
    else:
        raise CliError("provide --vocab or a formula to draw symbols from")
    # sizes never shrink with depth, so the first one over the budget stops
    # the count before it grows out of reach; no term nests past MAX_NESTING
    depths = range(min(args.depth, syntax.MAX_NESTING) + 1)
    for depth, size in zip(depths, syntax.herbrand_universe_sizes(vocab)):
        if size > budget:
            raise semantics.BudgetExceededError(size, budget, f"terms at depth {depth}")
    terms = syntax.herbrand_universe(vocab, args.depth)
    report = Report()
    report.add("depth", args.depth)
    report.add("count", len(terms))
    report.add("terms", "\n".join(syntax.format_term(t) for t in terms))
    return report


def cmd_bsr(args, budget: int) -> Report:
    formula = _load_formula(args)
    verdict = decision.bsr_decide(formula, budget)
    report = Report()
    report.add("formula", syntax.format_formula(formula))
    _add_verdict(report, verdict)
    return report


def _load_trace(args) -> reduction.ReductionTrace:
    vocab = _load_vocab(args)
    return reduction.hardness_reduce(_load_formula(args, vocab), vocab)


def cmd_reduce(args, budget: int) -> Report:
    trace = _load_trace(args)
    report = Report()
    report.add("input", syntax.format_formula(trace.input))
    report.add("negation-nnf", syntax.format_formula(trace.negation))
    report.add("herbrand-form", syntax.format_formula(trace.herbrand_form))
    report.add("purely-universal", syntax.format_formula(trace.purely_universal_form))
    report.add("lattice-matrix", syntax.format_formula(trace.lattice_matrix_form))
    report.add("star-output", syntax.format_formula(trace.star_output))
    if trace.fresh_constants:
        report.add("fresh-constants", ", ".join(trace.fresh_constants))
    if trace.fresh_functions:
        report.add("fresh-functions", ", ".join(f"{n}/{a}" for n, a in trace.fresh_functions))
    if args.verify:
        _add_verification(report, args, trace, budget)
    return report


def _add_verification(report: Report, args, trace: reduction.ReductionTrace, budget: int) -> None:
    chains = _load_chains(args)
    result = reduction.verify_reduction_instance(
        trace, chains, max_domain=args.max_domain, max_depth=args.max_depth, budget=budget)
    report.add("certified", "contradiction" if result.is_contradiction else "non-contradiction")
    report.add("certificate", result.certificate)
    for name, ok, detail in result.checks:
        report.add(f"check [{name}]", f"{'pass' if ok else 'FAIL'} ({detail})")
    report.add("consistent", result.consistent)


def cmd_verify_reduction(args, budget: int) -> Report:
    trace = _load_trace(args)
    report = Report()
    report.add("input", syntax.format_formula(trace.input))
    report.add("star-output", syntax.format_formula(trace.star_output))
    _add_verification(report, args, trace, budget)
    return report


def cmd_enum_chains(args, budget: int) -> Report:
    found = list(chains_mod.enumerate_mtl_chains(args.size))
    report = Report()
    report.add("size", args.size)
    report.add("count", len(found))
    if args.tables:
        for i, chain in enumerate(found):
            report.add(f"chain {i}", chain.describe())
    return report


def cmd_check_lemma1(args, budget: int) -> Report:
    if args.luk > chains_mod.MAX_NAMED_CHAIN_SIZE:
        # refused before any chain is built, not after building them all
        raise CliError(
            f"--luk {args.luk} above the named-chain cap {chains_mod.MAX_NAMED_CHAIN_SIZE}")
    # each size k in 2..luk is priced as two chains of two k x k tables, the
    # entries a table chain would hold, before any chain is built or
    # enumerated; a named chain builds none, but the price keeps every
    # budget error of this command as it is
    entries = 4 * (_sum_of_squares(max(args.luk, 1)) - 1)
    if entries > budget:
        raise semantics.BudgetExceededError(entries, budget, "chain table entries")
    # every size is checked against the cap before any chain is built
    sizes = [chains_mod.enumerate_mtl_chains(size) for size in range(2, args.enum + 1)]
    report = Report()
    total = 0
    for size, chains in enumerate(sizes, 2):
        for chain in chains:
            total += 1
            witness = chains_mod.check_square_meet_law(chain)
            if witness is not None:
                report.add("result", f"FAILED at rank {witness} on a size-{size} chain")
                report.add("chain", chain.describe())
                return report
    for k in range(2, args.luk + 1):
        for chain in (chains_mod.make_lukasiewicz_chain(k), chains_mod.make_godel_chain(k)):
            total += 1
            witness = chains_mod.check_square_meet_law(chain)
            if witness is not None:
                report.add("result", f"FAILED at rank {witness} on a size-{k} named chain")
                return report
    report.add("result", "all chains pass")
    report.add("chains-checked", total)
    return report


def cmd_phi_report(args, budget: int) -> Report:
    result = phi.phi_fin_refutation(args.max_k)
    report = Report()
    report.add("sentence", phi.PHI_TEXT)
    report.add("columns", "k value-sets max-value")
    for row in result.rows:
        report.add(f"k={row.k}", f"{row.value_sets_scanned} {row.max_value}")
    return report


def cmd_phi_witness(args, budget: int) -> Report:
    if args.n < 1:
        raise CliError(f"n {args.n} below minimum 1")
    # row N walks Phi's body for at most N^2 pairs (x, y): cubic in n overall
    evaluations = _sum_of_squares(args.n)
    if evaluations > budget:
        raise semantics.BudgetExceededError(evaluations, budget, "Phi body evaluations")
    report = Report()
    report.add("sentence", phi.PHI_TEXT)
    report.add("columns", "N value")
    for n in range(1, args.n + 1):
        _, value = phi.phi_truncated_witness(n)
        report.add(f"N={n}", value)
    return report


# -- argument wiring -----------------------------------------------------

def _add_formula_args(p):
    p.add_argument("--formula", help="formula text")
    p.add_argument("--formula-file", help="file containing the formula")
    p.add_argument("--vocab", help="vocabulary file (inferred from the formula when absent)")


def _add_chain_args(p):
    p.add_argument("--chain", action="append",
                   help="chain spec: luk:k, godel:k, file:path, enum:size (repeatable)")


@functools.cache
def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="fuzzyfo")
    parser.add_argument("--format", choices=["plain", "records"], default="plain")
    parser.add_argument("--output", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and classify it")
    _add_formula_args(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a sentence in a structure")
    _add_formula_args(p)
    _add_chain_args(p)
    p.add_argument("--structure", required=True, help="structure file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decide", help="bounded decision for a sentence set")
    _add_formula_args(p)
    _add_chain_args(p)
    p.add_argument("--set", choices=sorted(_DECIDERS), required=True)
    p.add_argument("--max-domain", type=_decimal, default=2)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("star", help="square every literal of a lattice combination")
    _add_formula_args(p)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("herbrand", help="closed terms up to a nesting depth")
    _add_formula_args(p)
    p.add_argument("--depth", type=_decimal, default=2)
    p.set_defaults(func=cmd_herbrand)

    p = sub.add_parser("bsr", help="decide a relational sentence with no exists under a forall")
    _add_formula_args(p)
    p.set_defaults(func=cmd_bsr)

    p = sub.add_parser("reduce", help="run the reduction pipeline")
    _add_formula_args(p)
    _add_chain_args(p)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-domain", type=_decimal, default=2)
    p.add_argument("--max-depth", type=_decimal, default=2)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify-reduction", help="reduction pipeline plus verification")
    _add_formula_args(p)
    _add_chain_args(p)
    p.add_argument("--max-domain", type=_decimal, default=2)
    p.add_argument("--max-depth", type=_decimal, default=2)
    p.set_defaults(func=cmd_verify_reduction)

    p = sub.add_parser("enum-chains", help="enumerate all MTL-chains of a size")
    p.add_argument("--size", type=_decimal, required=True)
    p.add_argument("--tables", action="store_true", help="print the t-norm tables")
    p.set_defaults(func=cmd_enum_chains)

    p = sub.add_parser("check-lemma1", help="verify the square-meet law on enumerated chains")
    p.add_argument("--enum", type=_decimal, default=5, help="enumerate all chains up to this size")
    p.add_argument("--luk", type=_decimal, default=12,
                   help="also check Lukasiewicz/Godel chains up to this size")
    p.set_defaults(func=cmd_check_lemma1)

    p = sub.add_parser("phi-report", help="finite-chain value scan for the separating sentence")
    p.add_argument("--max-k", type=_decimal, default=8)
    p.set_defaults(func=cmd_phi_report)

    p = sub.add_parser("phi-witness", help="standard-chain truncated witness values")
    p.add_argument("--n", type=_decimal, default=10)
    p.set_defaults(func=cmd_phi_witness)

    return parser


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Run a command; returns (exit code, report text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        budget = _budget()
        report = args.func(args, budget)
    except (CliError, semantics.BudgetExceededError, ValueError) as exc:
        return 1, f"error: {exc}\n"
    except reduction.ReductionBoundsError as exc:
        bounds = "them with --max-depth and" if exc.depth_helps else "it with"
        return 1, f"error: {exc} (raise {bounds} --max-domain)\n"
    except (reduction.ReductionVerificationError, semantics.EvaluatorMismatchError) as exc:
        return 2, f"internal consistency failure: {exc}\n"
    except Exception as exc:
        # a defect, not an input error: report it on one line, never as a
        # traceback (a BaseException such as KeyboardInterrupt passes)
        return 2, f"internal error: {type(exc).__name__}: {exc}\n"
    text = report.render()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return 1, f"error: cannot write {args.output}: {exc.strerror}\n"
        return 0, ""
    return 0, text


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run(sys.argv[1:] if argv is None else list(argv))
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
