"""toxikit: fine-grained Chinese toxic-language detection toolkit.

Pipeline pieces: text normalization, a categorized insult lexicon with
multi-pattern matching, profanity-variant derivation, lexicon-driven
pseudo-labeling, a small lexicon-enhanced classifier, and the evaluation
suite (weighted P/R/F1, per-expression accuracy, Fleiss' kappa).
"""

from .classifier import (
    ClassifierError,
    EncodedSet,
    ModelParams,
    Task,
    TkeConfig,
    Vocab,
    encode_corpus,
    grad_check,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict,
    save_checkpoint,
    train,
)
from .corpus import (
    CorpusError,
    Expression,
    Platform,
    SplitSpec,
    StatsReport,
    TargetGroup,
    Topic,
    ToxiSample,
    corpus_stats,
    parse_sample,
    read_corpus,
    split_dataset,
    validate_hierarchy,
    write_corpus,
)
from .lexicon import (
    Category,
    InsultEntry,
    Lexicon,
    LexiconError,
    LexiconMatch,
    RuleTag,
    Surface,
    find_matches,
    load_lexicon,
    token_category,
)
from .metrics import (
    MetricsError,
    RatingMatrix,
    expression_accuracy_breakdown,
    fleiss_kappa,
    weighted_prf,
)
from .normalize import clean_corpus, deduplicate, is_substantive, normalize_text
from .pseudolabel import (
    CandidateTerm,
    FixpointResult,
    PseudoLabel,
    PseudoLabeledSample,
    extract_candidates,
    iterate_to_fixpoint,
    pseudo_label,
)
from .variants import (
    CodeMixResult,
    DerivationRule,
    GlyphTable,
    PinyinTable,
    VariantCandidate,
    VariantError,
    compose_deformation,
    detect_code_mixing,
    expand_deformation,
    gen_abbreviation,
    gen_homophones,
)

__version__ = "0.1.0"
