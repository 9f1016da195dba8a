"""Citation baselines per (category, year) and fractional author credit.

Citations are standardized against the median of all corpus publications in
the same subject category and year; the median is preferred over the mean
because citation distributions are heavily skewed. Strata whose median is
zero fall back to the stratum mean so that any existing citations keep a
positive scale.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from .corpus import Corpus, Publication
from .errors import ValidationError

EQUAL_FRACTIONAL = "equal_fractional"
POSITIONAL = "positional"

Baselines = dict[tuple[str, int], "CategoryBaseline"]


@dataclass(frozen=True)
class CategoryBaseline:
    category: str
    year: int
    median_citations: float
    mean_citations: float
    fallback_used: bool

    @property
    def scale(self) -> float:
        """Denominator contribution: the median when positive, else the mean."""
        return self.median_citations if self.median_citations > 0 else self.mean_citations


@dataclass(frozen=True)
class CreditScheme:
    """How one publication's unit of credit is split across its authors.

    The positional weights are configuration, not an established convention:
    first and last authors count double by default, middle authors single,
    and extramural slots can be discounted before renormalization. Weights
    only apply to life-science fields; everywhere else (and in
    equal_fractional mode) credit is 1/n per author.
    """

    mode: str = EQUAL_FRACTIONAL
    first_weight: float = 2.0
    last_weight: float = 2.0
    middle_weight: float = 1.0
    extramural_discount: float = 1.0

    def __post_init__(self):
        if self.mode not in (EQUAL_FRACTIONAL, POSITIONAL):
            raise ValidationError(f"unknown credit mode {self.mode!r}")
        if min(self.first_weight, self.last_weight, self.middle_weight) <= 0:
            raise ValidationError("positional weights must be positive")
        if not 0 < self.extramural_discount <= 1:
            raise ValidationError("extramural discount must be in (0, 1]")


def compute_baselines(corpus: Corpus) -> Baselines:
    """One baseline per (category, year) pair occurring in the corpus.

    Every publication contributes its citation count to each of its
    categories; zero-citation publications are included.
    """
    groups: dict[tuple[str, int], list[int]] = defaultdict(list)
    for pub in corpus.publications:
        for cat in pub.categories:
            groups[(cat, pub.year)].append(pub.citations)
    baselines: Baselines = {}
    for (cat, year), cites in groups.items():
        median = float(statistics.median(cites))
        mean = sum(cites) / len(cites)
        baselines[(cat, year)] = CategoryBaseline(
            cat, year, median, mean, median == 0 and mean > 0
        )
    return baselines


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
    denominator = sum(scales) / len(scales)
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
    total = sum(weights.values())
    return {position: w / total for position, w in weights.items()}
