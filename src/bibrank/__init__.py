"""Country-level publication counting, collaboration metrics and rank statistics.

The package computes research-output scores under whole and fractional
counting, derives international-collaboration indicators, ranks countries
with tie-aware statistics, and regenerates every derived number in the
bundled 20-country reference tables. See the README for the data formats
and the ``bibrank`` command line.
"""

from .collaboration import (
    CountryMetrics,
    ReductionBasis,
    country_metrics,
    derive_metrics,
    icp_count,
    icp_pct,
    is_international,
    reduction_icp_ratio,
    reduction_pct,
)
from .counting import (
    CountMethod,
    FractionalMode,
    ScoreTable,
    fractional_count,
    slice_corpus,
    subject_group_count,
    whole_count,
)
from .errors import (
    FixtureIntegrityError,
    SchemaError,
    UndefinedInputError,
    UnknownGroupError,
)
from .ingest import (
    CountryAggregate,
    DEFAULT_DOC_TYPES,
    GroupRankRow,
    ValidationReport,
    apply_filter,
    parse_aggregate_csv,
    parse_csv,
    parse_group_ranks_csv,
    parse_jsonl,
    to_csv,
    to_jsonl,
)
from .model import (
    ALL_FIELDS,
    AuthorRef,
    Corpus,
    DocType,
    EMPTY_SCHEME,
    PublicationRecord,
    SubjectScheme,
    UNRESOLVED,
    countries_of,
    is_country_code,
    normalize_country,
)
from .rankstats import (
    CorrelationMatrix,
    RankEntry,
    RankTable,
    assign_ranks,
    average_ranks,
    correlation_matrix,
    pearson,
    spearman,
    spearman_closed_form,
    srcc_matrix,
)
from .replication import (
    FixtureSet,
    fig1_curves,
    load_fixtures,
    published_srcc_variant,
    replicate_rank_correlations,
    replicate_table2,
    replicate_table4,
)
from .synth import SynthParams, generate
from .tables import format_number, write_table

__version__ = "0.1.0"

__all__ = [
    "ALL_FIELDS",
    "AuthorRef",
    "Corpus",
    "CorrelationMatrix",
    "CountMethod",
    "CountryAggregate",
    "CountryMetrics",
    "DEFAULT_DOC_TYPES",
    "DocType",
    "EMPTY_SCHEME",
    "FixtureIntegrityError",
    "FixtureSet",
    "FractionalMode",
    "GroupRankRow",
    "PublicationRecord",
    "RankEntry",
    "RankTable",
    "ReductionBasis",
    "SchemaError",
    "ScoreTable",
    "SubjectScheme",
    "SynthParams",
    "UNRESOLVED",
    "UndefinedInputError",
    "UnknownGroupError",
    "ValidationReport",
    "apply_filter",
    "assign_ranks",
    "average_ranks",
    "correlation_matrix",
    "countries_of",
    "country_metrics",
    "derive_metrics",
    "fig1_curves",
    "format_number",
    "fractional_count",
    "generate",
    "icp_count",
    "icp_pct",
    "is_country_code",
    "is_international",
    "load_fixtures",
    "normalize_country",
    "parse_aggregate_csv",
    "parse_csv",
    "parse_group_ranks_csv",
    "parse_jsonl",
    "pearson",
    "published_srcc_variant",
    "reduction_icp_ratio",
    "reduction_pct",
    "replicate_rank_correlations",
    "replicate_table2",
    "replicate_table4",
    "slice_corpus",
    "spearman",
    "spearman_closed_form",
    "srcc_matrix",
    "subject_group_count",
    "to_csv",
    "to_jsonl",
    "whole_count",
    "write_table",
    "__version__",
]
