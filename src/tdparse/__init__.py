"""Incremental top-down PCFG parsing and language modeling.

The package induces a left-factored PCFG from a treebank, parses with a
probabilistic top-down beam search whose per-word queue masses double as
language-model conditionals, and ships an exhaustive-enumeration oracle
for verifying both on small grammars.
"""

from .treebank import (
    AXIOM,
    END_TOKEN,
    EPSILON,
    STOP_LABEL,
    UNK_TOKEN,
    Corpus,
    NormalizationConfig,
    Tree,
    TreebankError,
    augment_with_stop,
    normalize_tokens,
    parse_trees,
    read_corpus,
    read_sentences,
    read_trees,
    speech_normalize,
    strip_stop,
    to_bracketed,
    write_trees,
)
from .grammar import (
    GrammarError,
    Pcfg,
    Rule,
    induce_pcfg,
    left_factor_tree,
    log_tree_probability,
    tree_probability,
    tree_to_derivation,
    unfactor_tree,
)
from .conditioning import (
    CondConfig,
    ConditioningError,
    ContextModel,
    PRESETS,
    SpineNode,
    apply_rule,
    head_of,
    tune_interpolation,
)
from .lookahead import LookaheadError, LookaheadTables
from .parser import Analysis, BeamParser, ParseError, ParseResult, ParserConfig
from .oracle import OracleConfig, OracleError, OracleResult, derivation_tree, enumerate_derivations
from .langmodel import (
    LangModelError,
    NgramModel,
    WordProbTrace,
    corpus_perplexity,
    mixed_probs,
    perplexity,
    sentences_from_trees,
    vocab_mass,
    word_probabilities,
)
from .evaluation import CorpusScore, EvalError, PairScore, constituents, score_corpus, score_pair
from .model_io import (
    ModelIOError,
    ParserModel,
    load_model,
    prepare_trees,
    save_model,
    train_parser_model,
)

__version__ = "0.1.0"

__all__ = [
    "AXIOM", "END_TOKEN", "EPSILON", "STOP_LABEL", "UNK_TOKEN",
    "Corpus", "NormalizationConfig", "Tree", "TreebankError",
    "augment_with_stop", "normalize_tokens", "parse_trees", "read_corpus",
    "read_sentences", "read_trees", "speech_normalize", "strip_stop",
    "to_bracketed", "write_trees",
    "GrammarError", "Pcfg", "Rule", "induce_pcfg", "left_factor_tree",
    "log_tree_probability", "tree_probability", "tree_to_derivation",
    "unfactor_tree",
    "CondConfig", "ConditioningError", "ContextModel", "PRESETS",
    "SpineNode", "apply_rule", "head_of",
    "tune_interpolation",
    "LookaheadError", "LookaheadTables",
    "Analysis", "BeamParser", "ParseError", "ParseResult", "ParserConfig",
    "OracleConfig", "OracleError", "OracleResult", "derivation_tree",
    "enumerate_derivations",
    "LangModelError", "NgramModel", "WordProbTrace",
    "corpus_perplexity", "mixed_probs", "perplexity", "sentences_from_trees",
    "vocab_mass", "word_probabilities",
    "CorpusScore", "EvalError", "PairScore", "constituents", "score_corpus",
    "score_pair",
    "ModelIOError", "ParserModel", "load_model", "prepare_trees",
    "save_model", "train_parser_model",
    "__version__",
]
