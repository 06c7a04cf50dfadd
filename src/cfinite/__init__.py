"""Exact analysis of constant-coefficient linear recurrences.

The library generates Catalan numbers by four independent methods,
guesses/verifies/descends linear recurrences over exact fields, computes
power-sum (Binet) forms with dominant asymptotics, manipulates truncated
formal power series, and produces machine-checkable certificates that no
constant-coefficient linear recurrence generates the Catalan numbers.

Indexing convention: sequences are 1-based with C_1 = C_2 = 1, so C_n is
the classical Catalan number of index n - 1.

`import cfinite` loads no submodule: each name below, and each submodule,
is imported on first access (PEP 562), so a process pays only for what it
uses.
"""

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "certify": (
        "GfMismatchCertificate", "HankelCertificate", "ParityCertificate",
        "PolynomialCertificate", "RefutationBundle", "parse_bundle", "refute_all",
        "refute_by_gf", "refute_by_hankel", "refute_by_parity", "refute_by_polynomial",
        "serialize_bundle", "validate_certificate", "validate_document",
        "validate_serialized",
    ),
    "errors": (
        "BFileError", "CertificateError", "CFiniteError", "DimensionError",
        "InsufficientDataError", "MixedRadicandError", "ResourceLimitError",
        "RootFindingError", "SingularSystemError",
    ),
    "gfseries": (
        "catalan_gf", "degree_parity_check", "expand_rational", "pade_reconstruct",
        "Polynomial", "rational_gf", "RationalFunction", "sqrt_one_minus_4x",
        "TruncatedSeries",
    ),
    "linalg": (),
    "powersum": (
        "binet_form", "catalan_asymptotic_constant", "characteristic_polynomial",
        "DominantPart", "dominant_part", "evaluate_powersum", "falling_factorial",
        "polynomial_roots", "PowerSum", "tail_lower_bound_check", "vandermonde_modulus",
    ),
    "recurrence": (
        "descend_field", "guess_recurrence", "hankel_evidence",
        "hankel_nonsingular_witness", "IntegerRecurrenceVector", "iterate_recurrence",
        "kernel_nontrivial", "LinearRecurrence", "normalize_coprime", "verify",
    ),
    "seqcore": (
        "catalan_ballot", "catalan_closed", "catalan_convolution", "catalan_holonomic",
        "catalan_is_odd", "catalan_is_odd_by_reduction", "fibonacci",
        "QuadraticFieldElement", "Sequence",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ (unlike importlib.import_module) shows in -X importtime; it
    # binds the submodule in this namespace.  A re-exported name is not
    # cached here, so it always reads the submodule's current binding.
    __import__(f"{__name__}.{module}")
    submodule = globals()[module]
    return submodule if module == name else getattr(submodule, name)


def __dir__():
    return sorted({*globals(), *__all__})
