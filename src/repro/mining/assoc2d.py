"""Two-dimensional association analysis (paper Section IV-D.2, Eqn 4).

Fills a table whose rows and columns are concept dimensions (vehicle
types x locations in Table II; customer intent x call outcome in
Table III) by counting co-occurring documents, and scores each cell
with the *lower interval terminal* of the lift

    (N_cell / N) / ((N_ver / N) * (N_hor / N))

so sparse cells cannot fake strong associations.  Cells support
drill-down to the underlying documents (Fig 4).

Counting runs through the partial/merge/finalize algebra
(:mod:`repro.mining.algebra`): each shard contributes integer row,
column and cell counts, merges sum them exactly, and the interval
bounds are computed once from the merged integers — bit-identical to
the single-index analysis.
"""

from dataclasses import dataclass

from repro.mining.algebra import PartialAggregate, compute, merge_counts
from repro.util.intervals import lift_lower_bound, lift_point_estimate


@dataclass(frozen=True)
class AssociationCell:
    """One (row, column) cell of the association table."""

    row_value: str
    col_value: str
    count: int
    row_total: int
    col_total: int
    grand_total: int
    strength: float  # interval lower bound of the lift
    point_lift: float

    @property
    def row_share(self):
        """Within-row share: count / row marginal (Table III/IV style)."""
        if self.row_total == 0:
            return 0.0
        return self.count / self.row_total


class AssociationTable:
    """The filled two-dimensional association table."""

    def __init__(self, index, row_dimension, col_dimension, cells,
                 row_values, col_values):
        self._index = index
        self.row_dimension = tuple(row_dimension)
        self.col_dimension = tuple(col_dimension)
        self.row_values = list(row_values)
        self.col_values = list(col_values)
        self._cells = cells

    def __eq__(self, other):
        """Value equality over the analytic content.

        Two tables are equal when their dimensions, value orders and
        every :class:`AssociationCell` match exactly — the backing
        index is deliberately excluded, so a table computed on an
        epoch snapshot equals one computed on an independently rebuilt
        index of the same corpus (the serving layer's bit-identity
        contract).
        """
        if not isinstance(other, AssociationTable):
            return NotImplemented
        return (
            self.row_dimension == other.row_dimension
            and self.col_dimension == other.col_dimension
            and self.row_values == other.row_values
            and self.col_values == other.col_values
            and self._cells == other._cells
        )

    __hash__ = None  # value-equal and mutable-adjacent: not hashable

    def cell(self, row_value, col_value):
        """The :class:`AssociationCell` at (row, col)."""
        try:
            return self._cells[(str(row_value), str(col_value))]
        except KeyError:
            raise KeyError(
                f"no cell ({row_value!r}, {col_value!r}) in table"
            ) from None

    def cells(self):
        """All cells, row-major."""
        return [
            self._cells[(row, col)]
            for row in self.row_values
            for col in self.col_values
        ]

    def strongest(self, n=5, min_count=1):
        """Cells with the highest interval-bounded strength."""
        ranked = [
            cell for cell in self.cells() if cell.count >= min_count
        ]
        ranked.sort(
            key=lambda c: (-c.strength, c.row_value, c.col_value)
        )
        return ranked[:n]

    def documents(self, row_value, col_value):
        """Drill down: the doc ids behind one cell (Fig 4)."""
        row_key = self.row_dimension + (str(row_value),)
        col_key = self.col_dimension + (str(col_value),)
        return sorted(
            self._index.documents_with(row_key)
            & self._index.documents_with(col_key),
            key=str,
        )

    def row_share_matrix(self):
        """{row: {col: within-row share}} — the Table III/IV view."""
        return {
            row: {
                col: self._cells[(row, col)].row_share
                for col in self.col_values
            }
            for row in self.row_values
        }


class AssociationAggregate(PartialAggregate):
    """The 2-D association analysis as a shard-mergeable aggregate.

    Partial state: the shard's document total plus integer row, column
    and co-occurrence counts.  A document co-occurs on both keys in
    exactly one shard (documents partition by id), so sums are exact
    and the merged counts equal the single-index ones.
    """

    analytic = "associate"

    def __init__(self, row_dimension, col_dimension, confidence=0.95,
                 interval_method="wilson", row_values=None,
                 col_values=None):
        """Dimension pair plus scoring knobs; see :func:`associate`."""
        self.row_dimension = tuple(row_dimension)
        self.col_dimension = tuple(col_dimension)
        self.confidence = confidence
        self.interval_method = interval_method
        self.row_values = (
            None if row_values is None else list(row_values)
        )
        self.col_values = (
            None if col_values is None else list(col_values)
        )

    def identity(self):
        """Empty counts."""
        return {
            "grand_total": 0,
            "row_totals": {},
            "col_totals": {},
            "pairs": {},
        }

    def partial(self, shard):
        """One shard's marginal and cell counts (integers only)."""
        if self.row_values is None:
            row_values = shard.values_of_dimension(self.row_dimension)
        else:
            row_values = self.row_values
        if self.col_values is None:
            col_values = shard.values_of_dimension(self.col_dimension)
        else:
            col_values = self.col_values
        row_totals = {}
        col_totals = {}
        pairs = {}
        col_views = {}
        for col_value in col_values:
            view = shard.postings_view(
                self.col_dimension + (col_value,)
            )
            col_views[col_value] = view
            col_totals[col_value] = len(view)
        for row_value in row_values:
            row_view = shard.postings_view(
                self.row_dimension + (row_value,)
            )
            row_totals[row_value] = len(row_view)
            if not row_view:
                continue
            for col_value in col_values:
                count = len(row_view & col_views[col_value])
                if count:
                    pairs[(row_value, col_value)] = count
        return {
            "grand_total": len(shard),
            "row_totals": row_totals,
            "col_totals": col_totals,
            "pairs": pairs,
        }

    def merge(self, accumulated, update):
        """Sum the totals and per-cell counts (exact)."""
        return {
            "grand_total": (
                accumulated["grand_total"] + update["grand_total"]
            ),
            "row_totals": merge_counts(
                accumulated["row_totals"], update["row_totals"]
            ),
            "col_totals": merge_counts(
                accumulated["col_totals"], update["col_totals"]
            ),
            "pairs": merge_counts(
                accumulated["pairs"], update["pairs"]
            ),
        }

    def finalize(self, state, index):
        """Score every cell from the merged integer counts."""
        grand_total = state["grand_total"]
        if grand_total == 0:
            raise ValueError("cannot analyse an empty index")
        if self.row_values is None:
            row_values = sorted(state["row_totals"])
        else:
            row_values = self.row_values
        if self.col_values is None:
            col_values = sorted(state["col_totals"])
        else:
            col_values = self.col_values
        cells = {}
        for row_value in row_values:
            row_total = state["row_totals"].get(row_value, 0)
            for col_value in col_values:
                count = state["pairs"].get((row_value, col_value), 0)
                col_total = state["col_totals"].get(col_value, 0)
                strength = lift_lower_bound(
                    count,
                    row_total,
                    col_total,
                    grand_total,
                    confidence=self.confidence,
                    method=self.interval_method,
                )
                point = lift_point_estimate(
                    count, row_total, col_total, grand_total
                )
                cells[(row_value, col_value)] = AssociationCell(
                    row_value=row_value,
                    col_value=col_value,
                    count=count,
                    row_total=row_total,
                    col_total=col_total,
                    grand_total=grand_total,
                    strength=strength,
                    point_lift=point,
                )
        return AssociationTable(
            index, self.row_dimension, self.col_dimension, cells,
            row_values, col_values,
        )


def associate(index, row_dimension, col_dimension, confidence=0.95,
              interval_method="wilson", row_values=None, col_values=None,
              backend=None):
    """Run the two-dimensional association analysis.

    Dimensions are ``("concept", category)`` or ``("field", name)``.
    ``row_values``/``col_values`` default to every observed value.

    Runs through the partial-aggregate algebra: per shard on a sharded
    index (optionally across an execution ``backend``), as
    one degenerate partial on a single index — bit-identical either
    way.
    """
    aggregate = AssociationAggregate(
        row_dimension,
        col_dimension,
        confidence=confidence,
        interval_method=interval_method,
        row_values=row_values,
        col_values=col_values,
    )
    return compute(aggregate, index, backend=backend)
