"""Lawrence oriented matroid workbench.

Sign matrices and their travels, parity chessboards and the named
lower-bound constructions, exhaustive interior-count verification engines,
closed-form bound tables, and an exact Gale transform / Radon partition
subsystem.

The package exports its public names lazily.  ``_EXPORTS`` maps each
submodule to the names it defines; the first access to one of them, as
``lomlab.max_r`` or through ``from lomlab import *``, imports the owning
submodule alone and caches the name here.  So ``import lomlab.cli``, or a
Radon experiment, never loads the travel engine or the verifier.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": ("BoundValue", "cyclic_facets", "h0_bound", "hd1_bound", "r_bound", "stacked_facets"),
    "chessboard": (
        "Chessboard",
        "board_from_sequence",
        "board_of",
        "canonical_matrix",
        "corners_for",
        "realize_sequence",
    ),
    "galerad": (
        "Coloring",
        "DegenerateSpanError",
        "GaleTransform",
        "GeneralPositionError",
        "LiftSeparationError",
        "PointConfig",
        "affine_projection",
        "count_induced",
        "gale_transform",
        "is_radon_pair",
        "lift_unbalanced",
        "max_r",
        "max_r_sampled",
        "random_point_config",
    ),
    "sign_matrix": ("SignMatrix", "reorient"),
    "travels": (
        "CyclicMatroidError",
        "Travel",
        "bottom_travel",
        "count_plain_travels",
        "enumerate_plain_travels",
        "interior_elements",
        "is_acyclic",
        "min_interior",
        "plain_travel",
        "reorientation_for_pt",
        "top_travel",
    ),
    "verifier": (
        "VerificationReport",
        "Witness",
        "exhaustive_rank3_scan",
        "reproduce_counterexample",
        "search_small_topes",
        "verify_lower",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _OWNER.keys())
