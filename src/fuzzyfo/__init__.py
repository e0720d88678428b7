"""Workbench for first-order fuzzy logics over MTL and MV chains."""

from .chains import (
    ChainValidationError, FiniteChain, STANDARD_CHAIN, StandardChain,
    check_square_meet_law, enumerate_mtl_chains, make_chain_from_table,
    make_godel_chain, make_lukasiewicz_chain, parse_chain_file,
)
from .syntax import (
    Atom, BOTTOM, Biimpl, Const, Exists, Forall, Formula, FragmentError, Impl,
    Join, Meet, Neg, ParseError, StrongConj, TOP, Term, TruthConst, Var,
    Vocabulary, VocabularyError, classical_nnf, format_formula, format_term,
    free_vars, herbrand_universe, is_lattice_literal_combination, parse,
    parse_vocabulary, skolemize, star_translate, substitute, vocabulary_of,
)
from .semantics import (
    BudgetExceededError, EvalError, Structure, enumerate_structures, eval,
    eval_propositional, parse_structure_file,
)
from .decision import (
    HerbrandWitness, Verdict, bsr_decide, dual_herbrand_search,
    is_classical_contradiction_prop, purely_universal_contradiction,
    sat1_bounded, sat_pos_bounded, taut0_bounded, taut_lt1_bounded,
)
from .reduction import (
    ReductionTrace, ReductionVerificationError, VerificationReport,
    hardness_reduce, matrix_to_lattice_literals, to_purely_universal,
    verify_reduction_instance,
)
from .phi import (
    PHI_TEXT, ValueSet, consistency_check_valuesets, eval_phi_on_valueset,
    phi_fin_refutation, phi_sentence, phi_truncated_witness, witness_family,
)

__version__ = "0.1.0"
