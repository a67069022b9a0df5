"""Exact combinatorics of arcs on a marked circle and their Grothendieck groups."""

from .arcs import Arc
from .tilting import (
    ExchangePair,
    StandardTilting,
    build_standard_tilting,
    exchange_pair,
    mutate,
    palu_relations,
)
from .snf import GroupPresentation, cokernel_presentation
from .k0 import (
    K0Report,
    OracleQuotient,
    VerificationError,
    arc_class,
    compute_k0_cn,
    euler_oracle,
    standard_basis_arcs,
    verify_closed_form,
)
from .completion import (
    compute_k0_completed,
    f_matrix,
    kernel_generator_arc,
    verify_f_oracle,
)

__all__ = [
    "Arc",
    "ExchangePair",
    "StandardTilting",
    "build_standard_tilting",
    "exchange_pair",
    "mutate",
    "palu_relations",
    "GroupPresentation",
    "cokernel_presentation",
    "K0Report",
    "OracleQuotient",
    "VerificationError",
    "arc_class",
    "compute_k0_cn",
    "euler_oracle",
    "standard_basis_arcs",
    "verify_closed_form",
    "compute_k0_completed",
    "f_matrix",
    "kernel_generator_arc",
    "verify_f_oracle",
]
