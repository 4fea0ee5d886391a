"""Relational color refinement, conditional message passing, and guarded
counting logic over knowledge graphs, with exact-arithmetic verification."""

from .corpus import (
    FIXTURE_NAMES,
    Claim,
    Fixture,
    check_claim,
    fixture,
    random_dag_kg,
    random_formula,
    random_history,
    random_kg,
)
from .errors import (
    FormulaSyntaxError,
    NodeBudgetError,
    PreconditionError,
    RelwlError,
    TripleFileError,
    UnknownEntityError,
    ValidationError,
)
from .graphs import (
    KnowledgeGraph,
    PairColoring,
    UnravellingTree,
    augment,
    canonical_tree_code,
    default_pair_coloring,
    from_triples,
    load_graph,
    permute_nodes,
    product_square,
    unravel,
)
from .logic import (
    And,
    Atom,
    CompiledClassifier,
    Formula,
    GuardedExists,
    Not,
    classify_pairs_via_compile,
    compile_gml_to_rmpnn,
    eval_gml,
    eval_gml_all,
    eval_rgfo3,
    eval_rgfo3_all,
    parse_formula,
    pretty,
    subformula_index,
    translate_gml_to_rgfo3,
    translate_rgfo3_to_gml,
)
from .networks import (
    FeatureTable,
    MLPDecoder,
    NetworkSpec,
    build_cmpnn_simulator,
    build_rwl1_simulator,
    build_sign_matrix,
    cmpnn_forward,
    cmpnn_pair_table,
    random_cmpnn_spec,
    random_rmpnn_spec,
    rmpnn_forward,
    score_link,
    score_tails,
    sign_basis,
    spec_from_json_dict,
    spec_to_json_dict,
)
from .suites import SUITE_NAMES, CheckResult, SuiteReport, run_all, run_suite
from .wl import (
    TEST_IDS,
    UNKNOWN,
    HistoryFunction,
    WLTrace,
    distinguishes,
    equivalent,
    refines,
    run_test,
)

__version__ = "0.1.0"
