"""Rewriting calculus for algebraic integral transforms, with a concrete
de Rham realization for checking the answers in coordinates.

Every public name, and every submodule, loads on first use (PEP 562):
`import dworklab` runs no module of the package.  So a process that only
runs the concrete engine, `dworklab dwork-check` for one, never loads the
symbolic engine (`geometry`, `terms`, `rules`, `certificates`, `search`,
`dsl`).
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines, in `__all__` order
_EXPORTS = {
    "errors": ("DworkError", "GeometryError", "ParseError", "RuleError",
               "TermError"),
    "geometry": ("CartesianFact", "FuncName", "FuncPull", "GeometryContext",
                 "SubCap", "SubName", "SubPre", "SubRed"),
    "terms": ("ETensor", "Exp", "Fourier", "Oim", "Opb", "RGamma", "Shift",
              "Struct", "Tensor", "Var", "equal_normal", "normalize",
              "serialize", "variety_of"),
    "rules": ("RULES", "apply_step"),
    "certificates": ("Closure", "Lemma", "ProofCertificate", "ProofStep",
                     "ValidationReport", "builtin_suite", "check_certificate",
                     "get_certificate", "verify_paper"),
    "search": ("SearchResult", "prove"),
    "reports": ("machine_report", "render_report", "text_report"),
    "dsl": ("BoundScript", "ScriptDocument", "bind_script", "load_script",
            "parse_script", "render_script"),
    "weyl": ("CohomologyReport", "DworkComparison", "MultiPoly",
             "complement_cohomology", "dwork_compare", "parse_poly",
             "poly_to_str", "supports_cohomology", "twisted_cohomology"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    """Load a public name from its module, or a submodule, on first use;
    it is then a plain global, so this runs once per name."""
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
