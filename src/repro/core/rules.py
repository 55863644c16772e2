"""Association-rule generation from frequent itemsets (Sec. III-B/D).

For every frequent itemset ``Z`` with ``|Z| ≥ 2``, each non-empty proper
subset ``X ⊂ Z`` yields a candidate rule ``X ⇒ Z∖X``.  The paper filters
candidates by a minimum lift of 1.5 ("the rules we generate are 50% more
likely to appear together than expected assuming the rule antecedent and
consequent are independent"); a minimum confidence can be layered on top.

All supports needed to score a rule are available from the frequent-itemset
table itself (every subset of a frequent itemset is frequent), so rule
generation never rescans the database.

Two implementations coexist:

* :func:`generate_rule_table` — the columnar kernel.  Itemsets are grouped
  by length; every antecedent/consequent split of a length-``L`` class is
  one bit-pattern applied to an ``(M, L)`` id matrix, subset supports come
  from a packed-integer key table via ``np.searchsorted``, all metrics are
  scored in one vectorised batch, and the min-lift / min-confidence /
  keyword filters are boolean masks applied *before* any
  :class:`AssociationRule` object exists.  Returns a
  :class:`~repro.core.ruletable.RuleTable`.
* :func:`generate_rules_legacy` — the original per-split object path,
  retained verbatim as the correctness oracle for the CI equality sweep.

:func:`generate_rules` keeps the historical list-of-objects API by
materialising the kernel's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .bitmap import kernel_timer, record_kernel
from .items import Item, ItemVocabulary, render_itemset
from .itemsets import FrequentItemsets
from .metrics import RuleMetrics, compute_metrics
from .ruletable import RuleTable, csr_range_gather

__all__ = [
    "AssociationRule",
    "generate_rules",
    "generate_rule_table",
    "generate_rules_legacy",
]

#: kernel counter fed by both paths when an itemset table that is not
#: downward-closed forces candidate splits to be dropped; ``calls`` carries
#: the number of dropped candidates so ``--profile`` surfaces them.
SKIPPED_KERNEL = "rules-skipped-lookups"


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """An implication ``antecedent ⇒ consequent`` with its quality metrics.

    The id-space fields (``antecedent_ids`` / ``consequent_ids``) are what
    the pruning machinery compares; the decoded frozensets of
    :class:`Item` are for presentation.
    """

    antecedent: frozenset[Item]
    consequent: frozenset[Item]
    antecedent_ids: frozenset[int]
    consequent_ids: frozenset[int]
    support: float
    confidence: float
    lift: float
    leverage: float
    conviction: float

    def __post_init__(self) -> None:
        if not self.antecedent_ids or not self.consequent_ids:
            raise ValueError("rule sides must be non-empty")
        if self.antecedent_ids & self.consequent_ids:
            raise ValueError("antecedent and consequent must be disjoint")

    def __str__(self) -> str:
        return (
            f"{render_itemset(self.antecedent)} => {render_itemset(self.consequent)}"
            f"  [supp={self.support:.3f}, conf={self.confidence:.3f}, lift={self.lift:.2f}]"
        )

    @property
    def items(self) -> frozenset[Item]:
        """Every item appearing in the rule."""
        return self.antecedent | self.consequent

    @property
    def item_ids(self) -> frozenset[int]:
        return self.antecedent_ids | self.consequent_ids

    @property
    def length(self) -> int:
        """Total number of items across both sides."""
        return len(self.antecedent_ids) + len(self.consequent_ids)

    def contains(self, item: Item | int) -> bool:
        """True if *item* (Item or id) appears on either side."""
        if isinstance(item, int):
            return item in self.antecedent_ids or item in self.consequent_ids
        return item in self.antecedent or item in self.consequent

    def metrics(self) -> RuleMetrics:
        return RuleMetrics(
            support=self.support,
            confidence=self.confidence,
            lift=self.lift,
            leverage=self.leverage,
            conviction=self.conviction,
        )

    def as_row(self) -> dict[str, object]:
        """Flat dict form, used by report tables and CSV export."""
        return {
            "antecedent": ", ".join(i.render() for i in sorted(self.antecedent)),
            "consequent": ", ".join(i.render() for i in sorted(self.consequent)),
            "support": round(self.support, 6),
            "confidence": round(self.confidence, 6),
            "lift": round(self.lift, 6),
            "leverage": round(self.leverage, 6),
            "conviction": self.conviction,
        }


def _make_rule(
    antecedent_ids: frozenset[int],
    consequent_ids: frozenset[int],
    metrics: RuleMetrics,
    vocabulary: ItemVocabulary,
) -> AssociationRule:
    return AssociationRule(
        antecedent=vocabulary.items_of(antecedent_ids),
        consequent=vocabulary.items_of(consequent_ids),
        antecedent_ids=antecedent_ids,
        consequent_ids=consequent_ids,
        support=metrics.support,
        confidence=metrics.confidence,
        lift=metrics.lift,
        leverage=metrics.leverage,
        conviction=metrics.conviction,
    )


def _validate_params(min_lift: float, min_confidence: float) -> None:
    if min_lift < 0:
        raise ValueError("min_lift must be >= 0")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")


def generate_rules(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
) -> list[AssociationRule]:
    """Enumerate and score rules from *itemsets* (list-of-objects API).

    Parameters
    ----------
    itemsets:
        Output of a mining pass; supplies all subset supports.
    min_lift:
        Keep rules with ``lift ≥ min_lift`` (paper default 1.5).
    min_confidence:
        Optional extra confidence floor (paper relies on lift alone).
    keyword_ids:
        If given, only rules containing at least one of these item ids are
        emitted — the keyword-relevance restriction of Sec. III-D, applied
        during generation to avoid materialising irrelevant rules.

    Rules are returned sorted by (lift, confidence, support) descending,
    ties broken by rendered text so output order is deterministic.  This
    is a thin wrapper over :func:`generate_rule_table`; the columnar table
    it materialises from is the canonical representation.
    """
    return generate_rule_table(
        itemsets,
        min_lift=min_lift,
        min_confidence=min_confidence,
        keyword_ids=keyword_ids,
    ).to_rules()


def generate_rule_table(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
) -> RuleTable:
    """Columnar rule generation: enumerate, score and filter as arrays.

    Semantics are identical to :func:`generate_rules_legacy` (same
    candidate set, same IEEE-double metric arithmetic, same deterministic
    output order) but no per-rule object is created: the result is a
    :class:`RuleTable` whose rows are exactly the surviving rules.
    Candidate splits whose subset supports are missing from a table that
    is not downward-closed are counted in ``table.n_skipped_lookups``
    and surfaced through the ``rules-skipped-lookups`` kernel counter.
    """
    _validate_params(min_lift, min_confidence)
    keywords = frozenset(keyword_ids) if keyword_ids is not None else None

    vocabulary = itemsets.vocabulary
    n = itemsets.n_transactions
    if n == 0:
        return RuleTable.empty(vocabulary)
    counts = itemsets.counts
    if not counts:
        return RuleTable.empty(vocabulary)

    with kernel_timer("rules-enumerate"):
        # ---- support lookup table over ALL frequent itemsets ----
        table_sets: list[tuple[int, ...]] = [tuple(sorted(s)) for s in counts]
        table_counts = np.fromiter(
            counts.values(), dtype=np.int64, count=len(counts)
        )
        max_id = max((t[-1] for t in table_sets if t), default=-1)
        max_len = max((len(t) for t in table_sets), default=0)

        # ---- itemsets to expand, grouped by length ----
        by_len: dict[int, tuple[list[tuple[int, ...]], list[int]]] = {}
        for itemset, count_xy in counts.items():
            if len(itemset) < 2:
                continue
            if keywords is not None and not (itemset & keywords):
                continue
            tups, cnts = by_len.setdefault(len(itemset), ([], []))
            tups.append(tuple(sorted(itemset)))
            cnts.append(count_xy)

        if not by_len:
            return RuleTable.empty(vocabulary)

        # ---- enumerate splits: packed-key kernel or dict fallback ----
        bits = (max_id + 1).bit_length()
        if bits * max_len <= 64:
            cxy, ant_rows, cons_rows, n_skipped = _enumerate_packed(
                by_len, table_sets, bits, max_len
            )
        else:  # pragma: no cover - needs > ~2^64 packed key space
            cxy, ant_rows, cons_rows, n_skipped = _enumerate_dict(
                by_len, counts
            )

    if n_skipped:
        record_kernel(SKIPPED_KERNEL, 0.0, n_skipped)
    if cxy.size == 0:
        empty = RuleTable.empty(vocabulary)
        empty.n_skipped_lookups = n_skipped
        return empty

    # ---- score every candidate in one batch; filter before materialising ----
    with kernel_timer("rules-score"):
        supp_xy = cxy.astype(np.float64) / n
        supp_x = table_counts[ant_rows].astype(np.float64) / n
        supp_y = table_counts[cons_rows].astype(np.float64) / n
        denom = supp_x * supp_y
        with np.errstate(divide="ignore", invalid="ignore"):
            conf = np.where(supp_x > 0.0, supp_xy / supp_x, 0.0)
            lift_arr = np.where(denom > 0.0, supp_xy / denom, 0.0)
            conviction_arr = np.where(
                conf >= 1.0, np.inf, (1.0 - supp_y) / (1.0 - conf)
            )
        leverage_arr = supp_xy - denom
        keep = np.flatnonzero((lift_arr >= min_lift) & (conf >= min_confidence))

    ant_rows = ant_rows[keep]
    cons_rows = cons_rows[keep]

    # ---- survivors: CSR id rows gathered from the itemset table ----
    table_lens = np.fromiter(
        (len(t) for t in table_sets), dtype=np.int64, count=len(table_sets)
    )
    table_indptr = np.concatenate(([0], np.cumsum(table_lens)))
    table_ids = np.fromiter(
        (i for t in table_sets for i in t), dtype=np.int64,
        count=int(table_indptr[-1]),
    )
    ant_indptr, ant_flat = csr_range_gather(table_indptr, ant_rows)
    cons_indptr, cons_flat = csr_range_gather(table_indptr, cons_rows)

    table = RuleTable(
        vocabulary,
        ant_indptr, table_ids[ant_flat],
        cons_indptr, table_ids[cons_flat],
        supp_xy[keep], conf[keep], lift_arr[keep],
        leverage_arr[keep], conviction_arr[keep],
        n_skipped_lookups=n_skipped,
    )

    # ---- canonical deterministic order, with the exact legacy tie-break ----
    with kernel_timer("rules-sort"):
        row_strings = np.empty(len(table_sets), dtype=object)
        for r in np.unique(np.concatenate([ant_rows, cons_rows])):
            row_strings[r] = str(sorted(vocabulary.items_of(table_sets[r])))
        table._sort_strings_cache = (row_strings[ant_rows], row_strings[cons_rows])
        table = table.sort_canonical()
    return table


def _enumerate_packed(
    by_len: dict[int, tuple[list[tuple[int, ...]], list[int]]],
    table_sets: list[tuple[int, ...]],
    bits: int,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Enumerate splits via exact packed-integer subset keys.

    Each sorted id tuple packs into one uint64 (``id + 1`` at ``bits`` bits
    per slot, zeros padding), so a subset-support lookup is a binary
    search over the sorted key table instead of a dict probe per split.
    """
    padded = np.zeros((len(table_sets), max_len), dtype=np.uint64)
    for r, tup in enumerate(table_sets):
        padded[r, : len(tup)] = [i + 1 for i in tup]
    keys = _pack_columns(padded, bits)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def lookup(qkeys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.searchsorted(sorted_keys, qkeys)
        pos = np.minimum(pos, len(sorted_keys) - 1)
        return order[pos], sorted_keys[pos] == qkeys

    cxy_parts: list[np.ndarray] = []
    ant_parts: list[np.ndarray] = []
    cons_parts: list[np.ndarray] = []
    n_skipped = 0
    for length in sorted(by_len):
        tups, cnts = by_len[length]
        base = np.asarray(tups, dtype=np.uint64) + np.uint64(1)  # (M, length)
        cnt = np.asarray(cnts, dtype=np.int64)
        for pattern in range(1, (1 << length) - 1):
            cols_a = [k for k in range(length) if (pattern >> k) & 1]
            cols_c = [k for k in range(length) if not (pattern >> k) & 1]
            rows_a, valid_a = lookup(_pack_columns(base[:, cols_a], bits))
            rows_c, valid_c = lookup(_pack_columns(base[:, cols_c], bits))
            valid = valid_a & valid_c
            n_invalid = int(np.count_nonzero(~valid))
            if n_invalid:
                n_skipped += n_invalid
                sel = np.flatnonzero(valid)
                rows_a, rows_c, count = rows_a[sel], rows_c[sel], cnt[sel]
            else:
                count = cnt
            cxy_parts.append(count)
            ant_parts.append(rows_a)
            cons_parts.append(rows_c)

    if not cxy_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), n_skipped
    return (
        np.concatenate(cxy_parts),
        np.concatenate(ant_parts),
        np.concatenate(cons_parts),
        n_skipped,
    )


def _pack_columns(cols: np.ndarray, bits: int) -> np.ndarray:
    """Pack an ``(M, W)`` uint64 matrix into one key per row."""
    acc = np.zeros(len(cols), dtype=np.uint64)
    for k in range(cols.shape[1]):
        acc |= cols[:, k] << np.uint64(bits * k)
    return acc


def _enumerate_dict(
    by_len: dict[int, tuple[list[tuple[int, ...]], list[int]]],
    counts: dict[frozenset[int], int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Dict-probe fallback when ids are too wide for packed keys.

    Produces the same candidate arrays as :func:`_enumerate_packed`; only
    the lookup mechanism differs.
    """
    row_of = {itemset: row for row, itemset in enumerate(counts)}
    cxy_l: list[int] = []
    ant_l: list[int] = []
    cons_l: list[int] = []
    n_skipped = 0
    for length in sorted(by_len):
        tups, cnts = by_len[length]
        for tup, count_xy in zip(tups, cnts):
            full = frozenset(tup)
            for pattern in range(1, (1 << length) - 1):
                antecedent = frozenset(
                    tup[k] for k in range(length) if (pattern >> k) & 1
                )
                row_a = row_of.get(antecedent)
                row_c = row_of.get(full - antecedent)
                if row_a is None or row_c is None:
                    n_skipped += 1
                    continue
                cxy_l.append(count_xy)
                ant_l.append(row_a)
                cons_l.append(row_c)
    return (
        np.asarray(cxy_l, dtype=np.int64),
        np.asarray(ant_l, dtype=np.int64),
        np.asarray(cons_l, dtype=np.int64),
        n_skipped,
    )


def generate_rules_legacy(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
) -> list[AssociationRule]:
    """The original per-split object path, kept as the correctness oracle.

    The CI equality sweep asserts :func:`generate_rule_table` reproduces
    this output bit-for-bit (same rules, same metric doubles, same order)
    on all three traces.  Do not "optimise" this function — its value is
    being the unchanged reference.
    """
    _validate_params(min_lift, min_confidence)
    keywords = frozenset(keyword_ids) if keyword_ids is not None else None

    n = itemsets.n_transactions
    if n == 0:
        return []
    counts = itemsets.counts
    vocabulary = itemsets.vocabulary
    rules: list[AssociationRule] = []

    # enumerate every split first, then score the whole batch with numpy:
    # the metric arithmetic is identical IEEE-double arithmetic to
    # compute_metrics, but runs once over arrays instead of per split, and
    # AssociationRule objects are materialised only for survivors
    antecedents: list[frozenset[int]] = []
    consequents: list[frozenset[int]] = []
    count_xy_l: list[int] = []
    count_x_l: list[int] = []
    count_y_l: list[int] = []
    n_skipped = 0

    for itemset, count_xy in counts.items():
        if len(itemset) < 2:
            continue
        if keywords is not None and not (itemset & keywords):
            continue
        members = sorted(itemset)
        # every split of the itemset into non-empty (antecedent, consequent)
        for size in range(1, len(members)):
            for antecedent in combinations(members, size):
                antecedent_ids = frozenset(antecedent)
                consequent_ids = itemset - antecedent_ids
                count_x = counts.get(antecedent_ids)
                count_y = counts.get(consequent_ids)
                if count_x is None or count_y is None:
                    # cannot happen for a downward-closed itemset table
                    # (every miner's output); hand-built ones may be incomplete
                    n_skipped += 1
                    continue
                antecedents.append(antecedent_ids)
                consequents.append(consequent_ids)
                count_xy_l.append(count_xy)
                count_x_l.append(count_x)
                count_y_l.append(count_y)

    if n_skipped:
        record_kernel(SKIPPED_KERNEL, 0.0, n_skipped)
    if not count_xy_l:
        return []

    with kernel_timer("rules-batch"):
        supp_xy = np.asarray(count_xy_l, dtype=np.float64) / n
        supp_x = np.asarray(count_x_l, dtype=np.float64) / n
        supp_y = np.asarray(count_y_l, dtype=np.float64) / n
        denom = supp_x * supp_y
        with np.errstate(divide="ignore", invalid="ignore"):
            conf = np.where(supp_x > 0.0, supp_xy / supp_x, 0.0)
            lift_arr = np.where(denom > 0.0, supp_xy / denom, 0.0)
            conviction_arr = np.where(
                conf >= 1.0, np.inf, (1.0 - supp_y) / (1.0 - conf)
            )
        leverage_arr = supp_xy - denom
        keep = np.flatnonzero((lift_arr >= min_lift) & (conf >= min_confidence))

        for i in keep:
            metrics = RuleMetrics(
                support=float(supp_xy[i]),
                confidence=float(conf[i]),
                lift=float(lift_arr[i]),
                leverage=float(leverage_arr[i]),
                conviction=float(conviction_arr[i]),
            )
            rules.append(
                _make_rule(antecedents[i], consequents[i], metrics, vocabulary)
            )

    rules.sort(
        key=lambda r: (
            -r.lift,
            -r.confidence,
            -r.support,
            str(sorted(r.antecedent)),
            str(sorted(r.consequent)),
        )
    )
    return rules
