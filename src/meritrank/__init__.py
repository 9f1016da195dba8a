"""Field-normalized research-performance analytics.

Load a corpus of publications and researchers, compute standardized
fractional-credit impact scores, aggregate them into university rankings,
re-rank counterfactually without each unit's top scientists, and simulate
class-weighted funding over the resulting classifications. A seeded
generator produces synthetic corpora for end-to-end runs.
"""

from ._version import __version__
from .corpus import (
    AuthorSlot,
    Corpus,
    Publication,
    Publications,
    Researchers,
    Taxonomy,
    active_sds_filter,
    load_corpus,
)
from .errors import (
    AllocationError,
    MeritrankError,
    UndefinedStatisticError,
    ValidationError,
)
from .normalization import (
    EQUAL_FRACTIONAL,
    POSITIONAL,
    CategoryBaseline,
    CreditScheme,
    compute_baselines,
)
from .indicators import (
    MeasuredStats,
    ScoredCorpus,
    ScoreTable,
    measured_shares,
    percentile_ranks,
    productivity_stats,
    researcher_ss,
    score_corpus,
    score_table,
)
from .aggregation import (
    LEVEL_SDS,
    LEVEL_UDA,
    PSTAR_MEAN_OF_UNITS,
    PSTAR_POOLED,
    RankedUnit,
    Units,
    level_unit_scores,
    national_averages,
    rank_units,
    ranking_order,
    sds_unit_scores,
    uda_unit_scores,
)
from .stats import (
    ConcentrationRatio,
    SpearmanResult,
    bottom_top_ratio,
    classify_quantiles,
    gini,
    quantile_class_sizes,
    round_half_up,
    spearman,
)
from .scenario import (
    SCOPE_NATIONAL,
    SCOPE_UNIT,
    CounterfactualReport,
    ScatterData,
    TopSelection,
    counterfactual_rankings,
    least_squares_line,
    select_top,
    shift_gini_scatter,
)
from .funding import (
    Finding,
    FundingAllocation,
    FundingPolicy,
    TopCensus,
    allocate,
    national_top_census,
    paradox_report,
)
from .synth import (
    CalibrationResult,
    CalibrationTargets,
    GeneratorProfile,
    calibrate,
    generate,
    measure_corpus,
    write_corpus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
