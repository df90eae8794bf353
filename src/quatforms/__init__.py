"""quatforms: complex forms of quaternionic symmetric spaces, by root data.

The pipeline mirrors the structure of the problem: build a root system,
grade it at the highest root's attach node, pick a toral element, centralize,
slice, and test whether the fixed submanifold is a complex form.  The
classifier runs the pipeline over all mod-2 coweight candidates and diffs
the survivors against a bundled registry of known forms.

Importing the package loads none of its modules: each public name is
looked up in its home module on every access (PEP 562), so a process
pays only for the modules it uses, and the name always reads the home
module's current binding.  The analysis pipeline (``subsys``,
``involution``, ``complexform``) loads as one unit on the first access to
any of its names, so the first ``analyze`` call after building its inputs
does not stop to import.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "rootsys": (
        "GradedDecomposition", "GradingError", "InvalidTypeError", "Root",
        "RootSystem", "SimpleType", "build_root_system", "grade", "node_set",
        "parse_type", "quaternionic_decomposition",
    ),
    "subsys": (
        "CartanType", "NotClosedError", "Subsystem",
        "UnclassifiableSubsystemError", "base_of", "recognize",
    ),
    "involution": ("ToralElement", "centralizer", "convert_to_coweight", "pairing"),
    "complexform": ("ComplexFormAnalysis", "analyze", "render_report", "step6_count"),
    "classify": (
        "ClassificationReport", "FoundForm", "GoldenDataError", "GoldenEntry",
        "classify_equal_rank", "generate_classical", "golden_for_type", "load_golden",
    ),
    "cases": ("REFERENCE_CASES", "ReferenceCase", "run_case"),
}

# Public name -> home module.
_HOME = {name: module for module, names in _HOMES.items() for name in names}

# Home module -> the module whose import loads it; complexform imports
# subsys and involution.
_LOADED_BY = {"subsys": "complexform", "involution": "complexform"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # A loaded submodule is bound on the package under its own name.
    home = globals().get(module)
    if home is None:
        import_module(f"{__name__}.{_LOADED_BY.get(module, module)}")
        home = globals()[module]
    return getattr(home, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
