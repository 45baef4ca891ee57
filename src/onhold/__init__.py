"""Mining and classifying issue-referencing code comments.

The package traces Java comments that cite issue-tracker tickets
through a repository's git history, tells apart comments that put work
on hold ("remove this once PROJ-123 is fixed") from plain
cross-references, and flags on-hold comments whose blocking issue has
since been resolved, so they are ready to be removed.
"""

from .datasetio import DatasetRow, load_dataset, save_dataset
from .errors import (
    ConfigError,
    DataFormatError,
    IssueNotFoundError,
    OnholdError,
    TrackerAuthError,
    TrackerError,
    TrackerTemporaryError,
    TrainingError,
)
from .evalstats import (
    ComparisonResult,
    FoldScores,
    StatsConfig,
    cliffs_delta,
    cohens_kappa,
    compare_folds,
    compute_auc,
    compute_metrics,
    evaluate_variants,
    holm_correct,
    kfold_split,
    lifespan_stats,
    mann_whitney,
    resolution_delay_stats,
)
from .issues import (
    IssueReference,
    PatternCollection,
    PatternSet,
    TrackerKind,
    abstract_terms,
    build_patterns,
    find_issue_references,
)
from .javalex import CommentBlock, extract_comments, normalize_whitespace
from .learn import (
    Dataset,
    Label,
    TrainedModel,
    classify,
    load_model,
    make_dataset,
    predict_proba,
    save_model,
    select_model,
    smote_oversample,
    train,
)
from .miner import (
    CommentLifecycle,
    is_test_file,
    mine_repository,
    trace_lifecycles,
    walk_history,
)
from .ngrams import (
    FeatureVector,
    NGramTerm,
    NGramVocabulary,
    build_bow_vocabulary,
    extract_terms,
    vectorize,
    weight_term,
)
from .report import render_report
from .textprep import clean, lemmatize, load_lemma_table, preprocess
from .tracker import (
    IssueGateway,
    IssueRecord,
    Recommendation,
    TrackerConfig,
    is_ready_to_remove,
    recommend,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CommentBlock",
    "extract_comments",
    "normalize_whitespace",
    "is_test_file",
    "walk_history",
    "trace_lifecycles",
    "mine_repository",
    "CommentLifecycle",
    "TrackerKind",
    "IssueReference",
    "PatternSet",
    "PatternCollection",
    "build_patterns",
    "find_issue_references",
    "abstract_terms",
    "clean",
    "lemmatize",
    "load_lemma_table",
    "preprocess",
    "NGramTerm",
    "NGramVocabulary",
    "FeatureVector",
    "extract_terms",
    "build_bow_vocabulary",
    "vectorize",
    "weight_term",
    "Label",
    "Dataset",
    "make_dataset",
    "TrainedModel",
    "train",
    "select_model",
    "smote_oversample",
    "predict_proba",
    "classify",
    "save_model",
    "load_model",
    "FoldScores",
    "ComparisonResult",
    "StatsConfig",
    "kfold_split",
    "compute_metrics",
    "compute_auc",
    "mann_whitney",
    "holm_correct",
    "cliffs_delta",
    "cohens_kappa",
    "compare_folds",
    "evaluate_variants",
    "lifespan_stats",
    "resolution_delay_stats",
    "IssueRecord",
    "TrackerConfig",
    "IssueGateway",
    "is_ready_to_remove",
    "recommend",
    "Recommendation",
    "DatasetRow",
    "load_dataset",
    "save_dataset",
    "render_report",
    "OnholdError",
    "ConfigError",
    "DataFormatError",
    "TrainingError",
    "TrackerError",
    "IssueNotFoundError",
    "TrackerAuthError",
    "TrackerTemporaryError",
]
