"""The nine special-element properties and the implications among them.

Kept apart from `monvar.lattices`, which re-exports both names, so that the
CLI parser can list the properties without loading numpy.
"""

from __future__ import annotations

from enum import Enum


class ElementProperty(Enum):
    NEUTRAL = "neutral"
    STANDARD = "standard"
    COSTANDARD = "costandard"
    DISTRIBUTIVE = "distributive"
    CODISTRIBUTIVE = "codistributive"
    MODULAR = "modular"
    LOWER_MODULAR = "lower-modular"
    UPPER_MODULAR = "upper-modular"
    CANCELLABLE = "cancellable"


# Element-wise implications that hold in every lattice.
PROPERTY_IMPLICATIONS: tuple[tuple[ElementProperty, ElementProperty], ...] = (
    (ElementProperty.NEUTRAL, ElementProperty.STANDARD),
    (ElementProperty.NEUTRAL, ElementProperty.COSTANDARD),
    (ElementProperty.STANDARD, ElementProperty.CANCELLABLE),
    (ElementProperty.COSTANDARD, ElementProperty.CANCELLABLE),
    (ElementProperty.CANCELLABLE, ElementProperty.MODULAR),
    (ElementProperty.STANDARD, ElementProperty.DISTRIBUTIVE),
    (ElementProperty.COSTANDARD, ElementProperty.CODISTRIBUTIVE),
    (ElementProperty.DISTRIBUTIVE, ElementProperty.LOWER_MODULAR),
    (ElementProperty.CODISTRIBUTIVE, ElementProperty.UPPER_MODULAR),
)
