"""TAGE-class branch predictor (Seznec & Michaud, JILP 2006).

A geometric-history tagged predictor usable as an alternative *second-level*
backend in any scheme (``second_level = "tage"`` on the scheme factories): a
bimodal base table plus a stack of partially-tagged tables indexed by
geometrically growing slices of the global history.  The longest-history
table whose tag matches provides the prediction; the next match (or the base
table) is the alternate prediction.  Per-entry usefulness counters arbitrate
allocation on mispredictions and are periodically decayed so stale entries
can be reclaimed.

Two deliberate departures from the original keep the structure inside this
code base's scheme contract:

* History is supplied *externally* by the scheme layer (like every other
  predictor here): indices and tags are pure functions of ``(pc, history)``,
  so a prediction and its later training with the same captured history
  always address the same entries regardless of what renamed in between.
  Geometric lengths are therefore capped at the scheme GHR width.
* Allocation is deterministic: on an allocation miss the candidate tables
  are scanned longest-history-first from a rotating start position, and if
  every candidate is useful, all candidate usefulness counters are decayed
  instead.  (The original flips a coin; a cache-keyed simulator cannot.)

Like :mod:`repro.predictors.gshare`, the predictor has two access paths over
one table state: a structured reference path (``optimized=False``) and an
optimized path (the default) that inlines the table walk over the backing
lists and lets a training reuse the lookup of the prediction just made
(until any training changes the tables).  Both paths share the same lists,
so they are bit-identical by construction; the hypothesis parity tests
drive both with common random branch streams — allocation and
usefulness-decay edge cases, and predictions and trainings interleaved,
included.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.predictors.base import DirectionPredictor, PredictorSizeReport, fold_pc
from repro.predictors.counters import unsigned_array


@dataclass(frozen=True)
class TAGEConfig:
    """Geometry of a TAGE predictor.

    The defaults give a ~11 KB structure — deliberately an order of
    magnitude below the paper's 148 KB perceptron budget, because TAGE's
    selling point is accuracy per bit; the shootout scenario compares the
    two as-is and the size report keeps the comparison honest.
    """

    #: log2 entries of the bimodal base table (2-bit counters).
    base_bits: int = 12
    #: log2 entries of each tagged table.
    table_bits: int = 10
    #: Partial tag width of the tagged tables.
    tag_bits: int = 9
    #: Signed prediction counter width of the tagged tables.
    counter_bits: int = 3
    #: Usefulness counter width of the tagged tables.
    useful_bits: int = 2
    #: Geometric history lengths, shortest first.  The longest one bounds
    #: the GHR width a scheme must provide.
    history_lengths: Tuple[int, ...] = (5, 9, 15, 25, 44)
    #: Tagged-table updates between usefulness-column decays (halving).
    decay_period: int = 4096

    @property
    def history_bits(self) -> int:
        """GHR width the hosting scheme must maintain."""
        return max(self.history_lengths)

    def storage_bits(self) -> int:
        base = (1 << self.base_bits) * 2
        per_entry = self.tag_bits + self.counter_bits + self.useful_bits
        tagged = len(self.history_lengths) * (1 << self.table_bits) * per_entry
        return base + tagged + self.history_bits


#: History values whose folds one predictor keeps memoised; the memo is
#: emptied when it fills (lookups of a prediction and its training are
#: adjacent, so that reuse survives any eviction policy).
_FOLD_MEMO_LIMIT = 4096


def _fold_history(history: int, length: int, bits: int) -> int:
    """Fold the ``length`` newest history bits into a ``bits``-wide hash."""
    value = history & ((1 << length) - 1)
    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


#: Fold tables of :func:`_fold_tables`, one per geometry, built on first use.
_FOLD_TABLES: dict = {}


def _fold_tables(geometry: Tuple[Tuple[int, ...], int, int]) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """``(constant, byte tables)`` that fold a history for every table at once.

    ``geometry`` is ``(history_lengths, table_bits, tag_bits)``.  The folds
    of one history value are packed into one int: table ``t`` owns the
    ``table_bits + tag_bits`` bits from ``t * (table_bits + tag_bits)``,
    its index fold low and its tag fold (folded and twisted halves) above.
    Every fold is linear over GF(2) in the history, so the packed folds of
    ``history`` are ``constant`` (the table numbers :meth:`TAGEPredictor._index`
    and :meth:`TAGEPredictor._tag` mix in) xor ``tables[k][byte k of
    history]`` over its bytes, each table entry the xor of the folds of the
    single bits of its byte.
    """
    tables = _FOLD_TABLES.get(geometry)
    if tables is None:
        history_lengths, table_bits, tag_bits = geometry
        stride = table_bits + tag_bits
        index_mask = (1 << table_bits) - 1
        tag_mask = (1 << tag_bits) - 1
        constant = 0
        for table in range(len(history_lengths)):
            constant |= (((table + 1) & tag_mask) << table_bits | ((table + 1) & index_mask)) << (
                table * stride
            )
        single = []
        for bit in range(max(history_lengths)):
            folds = 0
            index_fold = 1 << (bit % table_bits)
            tag_fold = (1 << (bit % tag_bits)) ^ (1 << (bit % (tag_bits - 1) + 1))
            for table, length in enumerate(history_lengths):
                if bit < length:
                    folds |= (tag_fold << table_bits | index_fold) << (table * stride)
            single.append(folds)
        byte_tables = []
        for first in range(0, len(single), 8):
            bits = single[first : first + 8]
            entries = [0] * 256
            for byte in range(1, 256):
                low = (byte & -byte).bit_length() - 1
                entries[byte] = (
                    entries[byte & (byte - 1)] ^ bits[low] if low < len(bits) else 0
                )
            byte_tables.append(tuple(entries))
        tables = _FOLD_TABLES[geometry] = (constant, tuple(byte_tables))
    return tables


class TAGEPredictor(DirectionPredictor):
    """Tagged geometric-history predictor with provider/altpred selection."""

    def __init__(
        self,
        config: Optional[TAGEConfig] = None,
        optimized: bool = True,
    ) -> None:
        self.config = config or TAGEConfig()
        cfg = self.config
        if not cfg.history_lengths or list(cfg.history_lengths) != sorted(
            set(cfg.history_lengths)
        ):
            raise ValueError(
                "TAGE history lengths must be strictly increasing, got "
                f"{cfg.history_lengths!r}"
            )
        if cfg.tag_bits < 2 or not 1 <= cfg.counter_bits <= 8 or not 1 <= cfg.useful_bits <= 8:
            # The twisted tag fold needs two tag bits; counters and
            # usefulness live in byte-wide columns.
            raise ValueError(
                "TAGE needs tag_bits >= 2 and 1-8 bit counter and usefulness "
                f"columns, got {cfg!r}"
            )
        self.optimized = optimized
        self.num_tables = len(cfg.history_lengths)
        self._base_entries = 1 << cfg.base_bits
        self._entries = 1 << cfg.table_bits
        self._index_mask = self._entries - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        self._u_max = (1 << cfg.useful_bits) - 1
        #: Base bimodal table, weakly not-taken (2-bit counters).
        self._base = bytearray([1]) * self._base_entries
        #: Tagged tables: parallel tag/counter/usefulness columns per table.
        self._tags = [unsigned_array(cfg.tag_bits, self._entries) for _ in range(self.num_tables)]
        self._ctrs = [array("b", bytes(self._entries)) for _ in range(self.num_tables)]
        self._useful = [bytearray(self._entries) for _ in range(self.num_tables)]
        #: Tagged-table update count, drives the periodic usefulness decay.
        self._update_count = 0
        #: Rotating start offset of the deterministic allocation scan.
        self._alloc_rotation = 0
        #: The geometry the fold tables are shared by (a plain tuple: hashing
        #: it is cheaper than hashing the config).
        self._fold_key = (tuple(cfg.history_lengths), cfg.table_bits, cfg.tag_bits)
        stride = cfg.table_bits + cfg.tag_bits
        self._index_shifts = tuple(table * stride for table in range(self.num_tables))
        self._tag_shifts = tuple(shift + cfg.table_bits for shift in self._index_shifts)
        self._pure_memos()

    def _pure_memos(self) -> None:
        #: Optimized-path state derived from the geometry (never pickled):
        #: the fold tables, loaded at the first lookup, and the packed folds
        #: per history value.
        self._folds: Optional[Tuple[int, Tuple[Tuple[int, ...], ...]]] = None
        self._fold_memo: dict = {}
        #: Optimized-path memo of the last prediction, ``(key, history,
        #: lookup)``: its training reuses the lookup instead of walking the
        #: tables again.  Any training drops it, since a training may change
        #: the entries a lookup reads, so a training that follows another
        #: one (a deferred training) reads the tables.
        self._last_lookup: Optional[tuple] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_folds"], state["_fold_memo"], state["_last_lookup"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._pure_memos()

    # ------------------------------------------------------------------
    # Index and tag hashes (pure functions of (pc, history))
    # ------------------------------------------------------------------
    def _base_index(self, pc: int) -> int:
        return fold_pc(pc, self.config.base_bits)

    def _index(self, pc: int, history: int, table: int) -> int:
        length = self.config.history_lengths[table]
        folded = _fold_history(history, length, self.config.table_bits)
        return (fold_pc(pc, self.config.table_bits) ^ folded ^ (table + 1)) & self._index_mask

    def _tag(self, pc: int, history: int, table: int) -> int:
        length = self.config.history_lengths[table]
        cfg = self.config
        folded = _fold_history(history, length, cfg.tag_bits)
        twisted = _fold_history(history, length, cfg.tag_bits - 1) << 1
        return (fold_pc(pc, cfg.tag_bits) ^ folded ^ twisted ^ (table + 1)) & self._tag_mask

    def _history_folds(self, history: int) -> int:
        """The history half of every table's index and tag hash, packed.

        Table ``t``'s index fold (table number mixed in) is ``folds >>
        _index_shifts[t]`` and its tag fold ``folds >> _tag_shifts[t]``;
        xor-ing a PC hash into them and masking gives :meth:`_index` /
        :meth:`_tag`, because masking distributes over xor.  A pure function
        of ``history``, memoised by the optimized :meth:`_lookup`.
        """
        tables = self._folds
        if tables is None:
            tables = self._folds = _fold_tables(self._fold_key)
        folds, byte_tables = tables
        for table in byte_tables:
            folds ^= table[history & 255]
            history >>= 8
        return folds

    # ------------------------------------------------------------------
    # Planned access
    # ------------------------------------------------------------------
    def plan_slot(self, pc: int, slot: int) -> Tuple[Tuple[int, int, int], int, int]:
        """``((pc, pc hashes, base index), 0, base index)`` of ``pc``.

        The PC half of every tagged table's index and tag hash, packed like
        :meth:`_history_folds`, and the base-table index are pure functions
        of ``pc``; the reference path rehashes from ``pc`` itself.  TAGE
        keeps no local history.
        """
        cfg = self.config
        pc_hash = fold_pc(pc, cfg.tag_bits) << cfg.table_bits | fold_pc(pc, cfg.table_bits)
        packed = 0
        for shift in self._index_shifts:
            packed |= pc_hash << shift
        base_index = fold_pc(pc, cfg.base_bits)
        return (pc, packed, base_index), 0, base_index

    def _lookup(self, key: Tuple[int, int, int], history: int):
        """(provider_table|None, provider_index, pred, alt_pred, indices, tags).

        ``pred`` is the provider's direction (or the base prediction when no
        tag matches); ``alt_pred`` is the next matching table's direction (or
        the base prediction).  Indices and tags are returned for update-time
        reuse — they are pure functions of the arguments, so prediction and
        training with the same captured history address the same entries.
        """
        pc, packed, base_index = key
        if self.optimized:
            folds = self._fold_memo.get(history)
            if folds is None:
                folds = self._history_folds(history)
                if len(self._fold_memo) >= _FOLD_MEMO_LIMIT:
                    self._fold_memo.clear()
                self._fold_memo[history] = folds
            folds ^= packed
            index_mask = self._index_mask
            tag_mask = self._tag_mask
            indices = [(folds >> shift) & index_mask for shift in self._index_shifts]
            tags = [(folds >> shift) & tag_mask for shift in self._tag_shifts]
        else:
            indices = [self._index(pc, history, t) for t in range(self.num_tables)]
            tags = [self._tag(pc, history, t) for t in range(self.num_tables)]
            base_index = self._base_index(pc)

        base_pred = self._base[base_index] >= 2
        provider = None
        alt = None
        for table in range(self.num_tables - 1, -1, -1):
            if self._tags[table][indices[table]] == tags[table]:
                if provider is None:
                    provider = table
                else:
                    alt = table
                    break
        if provider is None:
            return None, 0, base_pred, base_pred, indices, tags
        pred = self._ctrs[provider][indices[provider]] >= 0
        if alt is None:
            alt_pred = base_pred
        else:
            alt_pred = self._ctrs[alt][indices[alt]] >= 0
        return provider, indices[provider], pred, alt_pred, indices, tags

    # ------------------------------------------------------------------
    def output_planned(self, key: Tuple[int, int, int], _local_slot: int, history: int) -> int:
        """``1`` for a taken prediction, ``-1`` for not taken."""
        lookup = self._lookup(key, history)
        if self.optimized:
            self._last_lookup = (key, history, lookup)
        return 1 if lookup[2] else -1

    def train_planned(
        self, key: Tuple[int, int, int], _local_slot: int, history: int, outcome: bool
    ) -> None:
        last = self._last_lookup
        if last is not None and last[1] == history and last[0] == key:
            lookup = last[2]
        else:
            lookup = self._lookup(key, history)
        self._last_lookup = None
        provider, p_index, pred, alt_pred, indices, tags = lookup
        mispredicted = pred != outcome

        # Usefulness: the provider proved (or disproved) its worth only when
        # it actually disagreed with the alternate prediction.
        if provider is not None and pred != alt_pred:
            useful = self._useful[provider]
            value = useful[p_index]
            if pred == outcome:
                if value < self._u_max:
                    useful[p_index] = value + 1
            elif value > 0:
                useful[p_index] = value - 1

        # Train the provider (tagged counter) or the base bimodal entry.
        if provider is not None:
            ctrs = self._ctrs[provider]
            value = ctrs[p_index]
            if outcome:
                if value < self._ctr_max:
                    ctrs[p_index] = value + 1
            elif value > self._ctr_min:
                ctrs[p_index] = value - 1
            self._update_count += 1
            if self._update_count % self.config.decay_period == 0:
                self._decay_usefulness()
        else:
            base = self._base
            index = key[2]
            value = base[index]
            if outcome:
                if value < 3:
                    base[index] = value + 1
            elif value > 0:
                base[index] = value - 1

        # Allocate a longer-history entry on a misprediction.
        if mispredicted:
            start = 0 if provider is None else provider + 1
            if start < self.num_tables:
                self._allocate(start, indices, tags, outcome)

    def _allocate(
        self, start: int, indices: List[int], tags: List[int], outcome: bool
    ) -> None:
        """Claim one not-useful entry in a longer-history table.

        Candidates are scanned shortest-history-first from a rotating offset
        (deterministic stand-in for the original's randomized start); if
        every candidate is useful, their usefulness counters are all decayed
        so a persistent misprediction eventually frees a slot.
        """
        candidates = list(range(start, self.num_tables))
        rotation = self._alloc_rotation % len(candidates)
        self._alloc_rotation += 1
        for position in range(len(candidates)):
            table = candidates[(position + rotation) % len(candidates)]
            index = indices[table]
            if self._useful[table][index] == 0:
                self._tags[table][index] = tags[table]
                self._ctrs[table][index] = 0 if outcome else -1
                self._useful[table][index] = 0
                return
        for table in candidates:
            useful = self._useful[table]
            index = indices[table]
            if useful[index] > 0:
                useful[index] -= 1

    def _decay_usefulness(self) -> None:
        """Halve every usefulness counter (the periodic graceful reset)."""
        halved = bytes(value >> 1 for value in range(256))
        self._useful = [useful.translate(halved) for useful in self._useful]

    # ------------------------------------------------------------------
    def table_state(self):
        """Full table state as nested tuples (parity tests)."""
        return (
            tuple(self._base),
            tuple(tuple(column) for column in self._tags),
            tuple(tuple(column) for column in self._ctrs),
            tuple(tuple(column) for column in self._useful),
            self._update_count,
            self._alloc_rotation,
        )

    def size_report(self) -> PredictorSizeReport:
        cfg = self.config
        report = PredictorSizeReport()
        report.add("tage-base", self._base_entries * 2)
        per_entry = cfg.tag_bits + cfg.counter_bits + cfg.useful_bits
        report.add("tage-tagged", self.num_tables * self._entries * per_entry)
        report.add("tage-ghr", cfg.history_bits)
        return report


class TagePredicatePredictor(DirectionPredictor):
    """A TAGE backend for predicate targets.

    The predicate scheme predicts up to two targets per compare, one slot
    each.  The adapter plans a target as the TAGE plan of the compare PC
    salted per slot — slot 1 lands on the next aligned address, which every
    fold treats as a distinct static instruction — with a stable
    per-(pc, slot) index for the confidence estimator.
    """

    def __init__(
        self,
        config: Optional[TAGEConfig] = None,
        optimized: bool = True,
    ) -> None:
        self.tage = TAGEPredictor(config, optimized=optimized)
        self.config = self.tage.config
        #: Entry count the confidence estimator should be sized with (one
        #: counter per (base-table entry, slot) pair).
        self.confidence_entries = (1 << self.config.base_bits) * 2

    @staticmethod
    def _salted(pc: int, slot: int) -> int:
        return pc + (slot << 2)

    # ------------------------------------------------------------------
    # Planned access: the salted PC's TAGE plan.
    # ------------------------------------------------------------------
    def plan_slot(self, pc: int, slot: int) -> Tuple[Tuple[int, int, int], int, int]:
        """``(TAGE key of the salted pc, 0, confidence_index)`` of one target."""
        key, _, base_index = self.tage.plan_slot(self._salted(pc, slot), 0)
        return key, 0, (base_index << 1) | slot

    def output_planned(self, key: Tuple[int, int, int], local_slot: int, history: int) -> int:
        return self.tage.output_planned(key, local_slot, history)

    def train_planned(
        self, key: Tuple[int, int, int], local_slot: int, history: int, outcome: bool
    ) -> None:
        self.tage.train_planned(key, local_slot, history, outcome)

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        return self.tage.size_report()
