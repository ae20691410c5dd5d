"""Field-standardized citation impact analytics."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Attribution,
    Corpus,
    CorpusError,
    CorpusValidationError,
    DocType,
    FieldScheme,
    Journal,
    Organization,
    OrgType,
    PublicationRecord,
    census_citations,
    doc_type_shares,
    parse_corpus,
)
from .reconcile import (  # noqa: F401
    RuleSet,
    compile_rules,
    normalize_address,
    reconcile_corpus,
)
from .benchmarks import (  # noqa: F401
    BenchmarkTables,
    TopJournalSet,
    classify_top_journals,
    compute_benchmarks,
    compute_jxcr,
    compute_xcr,
)
from .indicators import (  # noqa: F401
    IndicatorRow,
    aggregate,
    concentration_index_from_shares,
    concentration_table,
)
from .trends import annual_series, avg_annual_increase, series_growth  # noqa: F401
from .reporting import RankingSpec, emit, rank  # noqa: F401
from .synth import SynthSpec, distortion_demo, generate_corpus  # noqa: F401
