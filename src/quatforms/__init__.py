"""quatforms: complex forms of quaternionic symmetric spaces, by root data.

The pipeline mirrors the structure of the problem: build a root system,
grade it at the highest root's attach node, pick a toral element, centralize,
slice, and test whether the fixed submanifold is a complex form.  The
classifier runs the pipeline over all mod-2 coweight candidates and diffs
the survivors against a bundled registry of known forms.
"""

from .rootsys import (
    GradedDecomposition,
    GradingError,
    InvalidTypeError,
    Root,
    RootSystem,
    SimpleType,
    build_root_system,
    grade,
    node_set,
    parse_type,
    quaternionic_decomposition,
)
from .subsys import (
    CartanType,
    NotClosedError,
    Subsystem,
    UnclassifiableSubsystemError,
    base_of,
    recognize,
)
from .involution import (
    ToralElement,
    centralizer,
    convert_to_coweight,
    pairing,
)
from .complexform import (
    ComplexFormAnalysis,
    analyze,
    render_report,
    step6_count,
)
from .classify import (
    ClassificationReport,
    FoundForm,
    GoldenDataError,
    GoldenEntry,
    classify_equal_rank,
    generate_classical,
    golden_for_type,
    load_golden,
)
from .cases import REFERENCE_CASES, ReferenceCase, run_case

__version__ = "0.1.0"

__all__ = [
    "CartanType",
    "ClassificationReport",
    "ComplexFormAnalysis",
    "FoundForm",
    "GoldenDataError",
    "GoldenEntry",
    "GradedDecomposition",
    "GradingError",
    "InvalidTypeError",
    "NotClosedError",
    "REFERENCE_CASES",
    "ReferenceCase",
    "Root",
    "RootSystem",
    "SimpleType",
    "Subsystem",
    "ToralElement",
    "UnclassifiableSubsystemError",
    "analyze",
    "base_of",
    "build_root_system",
    "centralizer",
    "classify_equal_rank",
    "convert_to_coweight",
    "generate_classical",
    "golden_for_type",
    "grade",
    "load_golden",
    "node_set",
    "pairing",
    "parse_type",
    "quaternionic_decomposition",
    "recognize",
    "render_report",
    "run_case",
    "step6_count",
]
