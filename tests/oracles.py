"""Per-record reference scorers: standardization and author credit of one `Publication`.

The package computes both in columns (`normalization.standardized_citations`
and `normalization.slot_credit_shares`). These record-by-record versions are
the plain reference that tests compare the columns with; no run executes them.
"""

from __future__ import annotations

from meritrank.corpus import Publication
from meritrank.errors import ValidationError
from meritrank.normalization import EQUAL_FRACTIONAL, Baselines, CreditScheme
from meritrank.stats import ordered_sum


def standardize(pub: Publication, baselines: Baselines) -> float:
    """Citations scaled by the mean of the per-category baseline scales.

    Multi-category publications divide by the average of their categories'
    scales. A zero overall scale can only occur when the stratum is entirely
    uncited, which forces the publication's own count to zero as well.
    """
    scales = []
    for cat in pub.categories:
        baseline = baselines.get((cat, pub.year))
        if baseline is None:
            raise ValidationError(
                f"no baseline for category {cat!r} year {pub.year} (publication {pub.id!r})"
            )
        scales.append(baseline.scale)
    denominator = ordered_sum(scales) / len(scales)
    if pub.citations == 0 or denominator == 0:
        return 0.0
    return pub.citations / denominator


def credit_shares(pub: Publication, scheme: CreditScheme, is_life_science: bool) -> dict[int, float]:
    """Credit per author position; shares always sum to 1 per publication."""
    n = len(pub.authors)
    if scheme.mode == EQUAL_FRACTIONAL or not is_life_science:
        return {slot.position: 1.0 / n for slot in pub.authors}
    weights: dict[int, float] = {}
    for slot in pub.authors:
        if slot.position == 1:
            w = scheme.first_weight
        elif slot.position == n:
            w = scheme.last_weight
        else:
            w = scheme.middle_weight
        if not slot.intramural:
            w *= scheme.extramural_discount
        weights[slot.position] = w
    total = ordered_sum(weights.values())
    return {position: w / total for position, w in weights.items()}
