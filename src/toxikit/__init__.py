"""toxikit: fine-grained Chinese toxic-language detection toolkit.

Pipeline pieces: text normalization, a categorized insult lexicon with
multi-pattern matching, profanity-variant derivation, lexicon-driven
pseudo-labeling, a small lexicon-enhanced classifier, and the evaluation
suite (weighted P/R/F1, per-expression accuracy, Fleiss' kappa).
"""

__version__ = "0.1.0"
