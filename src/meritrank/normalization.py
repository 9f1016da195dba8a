"""Citation baselines per (category, year) and fractional author credit.

Citations are standardized against the median of all corpus publications in
the same subject category and year; the median is preferred over the mean
because citation distributions are heavily skewed. Strata whose median is
zero fall back to the stratum mean so that any existing citations keep a
positive scale.

`compute_baselines`, `standardized_citations` and `slot_credit_shares` read
the corpus's publication columns. Each sum adds its terms in category or
slot order, as a loop over the records would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Publications
from .errors import ValidationError

EQUAL_FRACTIONAL = "equal_fractional"
POSITIONAL = "positional"

Baselines = dict[tuple[str, int], "CategoryBaseline"]


@dataclass(frozen=True)
class CategoryBaseline:
    median_citations: float
    mean_citations: float

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
        weights = (self.first_weight, self.middle_weight, self.last_weight)
        if not all(0 < w < math.inf for w in weights):
            raise ValidationError(
                f"positional weights must be finite and positive, got first/middle/last {weights}"
            )
        if not 0 < self.extramural_discount <= 1:
            raise ValidationError("extramural discount must be in (0, 1]")


def _strata(pubs: Publications):
    """Per category entry: its publication's row and an integer key of its (category, year)
    stratum; plus the function that turns a key back into the pair."""
    rows = pubs.category_publication
    # Years are coded by rank, so every key is non-negative and below n_categories * n_years.
    years, year_code = np.unique(pubs.year[rows], return_inverse=True)
    span = len(years)

    def pair(key: int) -> tuple[str, int]:
        return pubs.category_names[key // span], int(years[key % span])

    return rows, pubs.category * span + year_code, pair


def compute_baselines(corpus: Corpus) -> Baselines:
    """One baseline per (category, year) pair occurring in the corpus.

    Every publication contributes its citation count to each of its
    categories; zero-citation publications are included. The median is
    taken after sorting each stratum; the mean is its integer sum divided by
    its count. Strata come in order of first appearance.
    """
    pubs = corpus.publications
    rows, keys, pair = _strata(pubs)
    cites = pubs.citations[rows]
    order = np.lexsort((cites, keys))
    keys, cites = keys[order], cites[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if not len(starts):
        return {}
    counts = np.diff(starts, append=len(keys))
    medians = (cites[starts + (counts - 1) // 2] + cites[starts + counts // 2]) / 2
    totals = np.add.reduceat(cites, starts)
    first_seen = np.argsort(np.minimum.reduceat(order, starts))
    baselines: Baselines = {}
    for key, median, total, count in zip(
        keys[starts][first_seen].tolist(),
        medians[first_seen].tolist(),
        totals[first_seen].tolist(),
        counts[first_seen].tolist(),
    ):
        cat, year = pair(key)
        mean = total / count  # Python division of the exact integers
        baselines[(cat, year)] = CategoryBaseline(median, mean)
    return baselines


def standardized_citations(pubs: Publications, baselines: Baselines) -> np.ndarray:
    """Every publication's citations divided by the mean of its categories' scales, as one array.

    A publication scores 0 when uncited, or when its mean scale is 0, which
    only uncited strata give. A stratum absent from `baselines` is an error.
    """
    rows, keys, pair = _strata(pubs)
    strata, stratum_of_entry = np.unique(keys, return_inverse=True)
    scales = []
    for stratum, key in enumerate(strata.tolist()):
        cat, year = pair(key)
        baseline = baselines.get((cat, year))
        if baseline is None:
            pid = pubs.ids[rows[np.argmax(stratum_of_entry == stratum)]]
            raise ValidationError(f"no baseline for category {cat!r} year {year} (publication {pid!r})")
        scales.append(baseline.scale)
    n = len(pubs)
    # bincount adds each publication's scales in category order, left to right.
    scale_sums = np.bincount(rows, weights=np.array(scales, dtype=float)[stratum_of_entry], minlength=n)
    denominators = scale_sums / np.diff(pubs.category_offsets)
    cited = (pubs.citations != 0) & (denominators != 0)
    return np.divide(pubs.citations, denominators, out=np.zeros(n), where=cited)


def slot_credit_shares(pubs: Publications, scheme: CreditScheme, is_life_science: np.ndarray) -> np.ndarray:
    """Credit of every author slot; `is_life_science` is per slot too. Each publication's shares sum to 1.

    A slot gets 1/n of its publication's n authors, except a life-science slot under a positional
    scheme: its position's weight, discounted if extramural, over its publication's total weight.
    The positional weights of all slots are taken first, in place, and the
    equal shares then fill the slots outside the life sciences. At most one
    slot-length temporary lives beside the shares.
    """
    n_authors = np.diff(pubs.slot_offsets)
    if scheme.mode == EQUAL_FRACTIONAL or not is_life_science.any():
        return 1.0 / np.repeat(n_authors, n_authors)
    positions = pubs.slot_position
    shares = np.full(len(positions), scheme.middle_weight)
    shares[positions == np.repeat(n_authors, n_authors)] = scheme.last_weight
    shares[positions == 1] = scheme.first_weight
    shares[~pubs.slot_intramural] *= scheme.extramural_discount
    # bincount adds in slot order, left to right; np.sum's pairwise order differs from 8 slots on.
    shares /= np.repeat(np.bincount(pubs.slot_publication, weights=shares, minlength=len(pubs)), n_authors)
    np.divide(1.0, np.repeat(n_authors, n_authors), out=shares, where=~is_life_science)
    return shares
