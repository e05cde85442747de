"""Exact Seshadri constants on self-products of an elliptic curve.

Three surfaces are supported: the generic self-product (lattice rank 3) and
the two self-products whose factor has an automorphism of order 4 or 6
(rank 4).  All computations are exact; an independent brute-force oracle is
provided for cross-validation.
"""
from . import cm, cross_section, nocm, oracle
from .cross_section import CrossSection
from .lattice import (
    NSClass,
    Surface,
    generator_classes,
    intersect,
    is_ample,
    is_nef,
    ns_class,
    self_intersection,
)

__version__ = "0.1.0"


def seshadri_constant(L: NSClass):
    """Dispatch to the closed-form computation for the class's surface.

    Both return a `lattice.SeshadriResult`.  Anything but an `NSClass` goes
    to `nocm`, whose ampleness gate raises `TypeError` for it.
    """
    if isinstance(L, NSClass) and L.surface.trace is not None:
        return cm.seshadri_constant(L)
    return nocm.seshadri_constant(L)


__all__ = [
    "CrossSection",
    "NSClass",
    "Surface",
    "cm",
    "cross_section",
    "generator_classes",
    "intersect",
    "is_ample",
    "is_nef",
    "nocm",
    "ns_class",
    "oracle",
    "self_intersection",
    "seshadri_constant",
]
