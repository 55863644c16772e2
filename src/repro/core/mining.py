"""High-level mining orchestration: database → frequent itemsets → rules.

This module wires the pieces of Sec. III together behind one entry point:

1. frequent-itemset extraction (FP-Growth by default, min-support 5 %,
   max length 5);
2. rule generation with the minimum-lift filter (1.5);
3. optional keyword restriction and Conditions 1–4 pruning.

:class:`MiningConfig` carries every knob with the paper's defaults, so the
three case studies run with literally identical parameters — one of the
paper's headline claims ("our empirical studies across three distinct
datacenter traces consistently applied identical support and lift
thresholds").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Literal

from .apriori import apriori
from .eclat import eclat
from .fpgrowth import fpgrowth
from .items import Item, as_item
from .itemsets import FrequentItemsets
from .pruning import PruningConfig, PruningReport, prune_rule_table
from .rules import AssociationRule, generate_rule_table, generate_rules
from .ruletable import RuleTable
from .transactions import TransactionDatabase

__all__ = [
    "MiningConfig",
    "KeywordRuleSet",
    "mine_frequent_itemsets",
    "mine_rules",
    "mine_keyword_rules",
    "ALGORITHMS",
]

#: algorithm registry shared with the engine and benchmarks
ALGORITHMS: dict[str, Callable[..., dict[frozenset[int], int]]] = {
    "fpgrowth": fpgrowth,
    "apriori": apriori,
    "eclat": eclat,
}


@dataclass(frozen=True, slots=True)
class MiningConfig:
    """All parameters of the analysis workflow (paper defaults)."""

    min_support: float = 0.05
    max_len: int | None = 5
    min_lift: float = 1.5
    min_confidence: float = 0.0
    algorithm: Literal["fpgrowth", "apriori", "eclat"] = "fpgrowth"
    c_lift: float = 1.5
    c_supp: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_support <= 1.0:
            raise ValueError("min_support must be in [0, 1]")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; have {sorted(ALGORITHMS)}"
            )
        if self.min_lift < 0:
            raise ValueError(f"min_lift must be >= 0, got {self.min_lift}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if self.max_len is not None and self.max_len < 1:
            raise ValueError(f"max_len must be >= 1 (or None), got {self.max_len}")
        if self.c_lift <= 0:
            raise ValueError(f"c_lift must be > 0, got {self.c_lift}")
        if self.c_supp <= 0:
            raise ValueError(f"c_supp must be > 0, got {self.c_supp}")

    def with_(self, **overrides) -> "MiningConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def itemset_key(self) -> tuple:
        """The fields that determine a frequent-itemset result.

        Rule-level knobs (lift, confidence, pruning constants) do not
        change which itemsets are frequent, so the engine cache keys on
        this projection only — a lift sweep over one trace is a string of
        cache hits.
        """
        return (self.min_support, self.max_len, self.algorithm)

    @property
    def pruning(self) -> PruningConfig:
        return PruningConfig(c_lift=self.c_lift, c_supp=self.c_supp)


@dataclass(frozen=True, slots=True)
class KeywordRuleSet:
    """The outcome of a keyword-centric mining pass.

    ``cause`` rules carry the keyword in the consequent ("C" rows of the
    paper's tables); ``characteristic`` rules carry it in the antecedent
    ("A" rows).  ``table`` holds the surviving rules in columnar form
    (pruned :class:`RuleTable`, canonical order) when the pass ran
    through the table pipeline; persistence and serving consume it
    without re-materialising objects.
    """

    keyword: Item
    cause: tuple[AssociationRule, ...]
    characteristic: tuple[AssociationRule, ...]
    report: PruningReport
    n_rules_before_pruning: int
    table: RuleTable | None = field(default=None, compare=False)

    @property
    def all_rules(self) -> tuple[AssociationRule, ...]:
        return self.cause + self.characteristic

    def __len__(self) -> int:
        return len(self.cause) + len(self.characteristic)

    def __str__(self) -> str:
        return (
            f"KeywordRuleSet(keyword={self.keyword.render()!r}, "
            f"cause={len(self.cause)}, characteristic={len(self.characteristic)})"
        )


def mine_frequent_itemsets(
    db: TransactionDatabase, config: MiningConfig = MiningConfig()
) -> FrequentItemsets:
    """Frequent itemsets of *db*, via the process-wide mining engine.

    This is the one-call convenience path: it routes through
    :func:`repro.engine.default_engine`, so repeated calls on identical
    database content (support sweeps, multi-keyword studies, benchmark
    rounds) are answered from the content-addressed itemset cache.
    Callers needing an isolated cache build their own :class:`repro.engine.MiningEngine`.
    """
    # imported lazily: repro.engine sits one layer above repro.core
    from ..engine import default_engine

    return default_engine().mine(db, config)


def mine_rules(
    db: TransactionDatabase,
    config: MiningConfig = MiningConfig(),
    keyword: Item | str | None = None,
) -> list[AssociationRule]:
    """Mine lift-filtered rules; optionally restricted to a keyword."""
    itemsets = mine_frequent_itemsets(db, config)
    keyword_ids = None
    if keyword is not None:
        kw_id = db.vocabulary.get_id(as_item(keyword))
        if kw_id is None:
            return []
        keyword_ids = (kw_id,)
    return generate_rules(
        itemsets,
        min_lift=config.min_lift,
        min_confidence=config.min_confidence,
        keyword_ids=keyword_ids,
    )


def mine_keyword_rules(
    db: TransactionDatabase,
    keyword: Item | str,
    config: MiningConfig = MiningConfig(),
    itemsets: FrequentItemsets | None = None,
) -> KeywordRuleSet:
    """Full keyword workflow: mine → filter → prune → split into C/A rules.

    Passing a precomputed *itemsets* lets a caller amortise one mining
    pass over several keywords (the case studies investigate both GPU
    underutilisation and failure on the same trace).
    """
    kw = as_item(keyword)
    if itemsets is None:
        itemsets = mine_frequent_itemsets(db, config)
    kw_id = db.vocabulary.get_id(kw)
    if kw_id is None:
        # keyword never appears in the trace; nothing to analyse
        return KeywordRuleSet(
            keyword=kw,
            cause=(),
            characteristic=(),
            report=PruningReport(),
            n_rules_before_pruning=0,
        )
    table = generate_rule_table(
        itemsets,
        min_lift=config.min_lift,
        min_confidence=config.min_confidence,
        keyword_ids=(kw_id,),
    )
    kept_table, report = prune_rule_table(table, kw, config.pruning)
    kept = kept_table.to_rules()
    cause = tuple(r for r in kept if kw in r.consequent)
    characteristic = tuple(r for r in kept if kw in r.antecedent)
    return KeywordRuleSet(
        keyword=kw,
        cause=cause,
        characteristic=characteristic,
        report=report,
        n_rules_before_pruning=len(table),
        table=kept_table,
    )
