"""Per-layer spans and counters, recorded from outside the program.

The tracer rebinds public functions of the package where their caller looks
them up (a module attribute or a class attribute) and restores them on
`uninstall`.  Spans nest on a stack: a layer's inclusive time is its span,
its self time is its span minus the spans of the wrapped calls it made.
Nothing is recorded per call beyond running totals, so memory stays flat no
matter how many eliminations a workload performs.
"""

from __future__ import annotations

from time import perf_counter

RREF = "linalg.rref"


# Counts read from return values; a result of another shape counts nothing
# rather than failing the operation.
def _poset_counts(counts, poset):
    counts["flats.build_intersection_poset.flats"] += len(getattr(poset, "flats", ()))


def _flat_counts(counts, table):
    counts["flats.count_flats.nonempty_subsets"] += sum(getattr(table, "counts", {}).values())
    counts["flats.count_flats.empty_subsets"] += sum(getattr(table, "empty", {}).values())


# (owner, attributes, layer, on_result): `owner.attribute` is where the caller
# looks the function up, so several attributes may feed one layer (the CLI and
# the library entry to `compute_betti`, the five stages of the page readout).
SITES = (
    ("cli", ("main",), "cli.main", None),
    ("cli", ("parse_arrangement",), "arrangement.parse_arrangement", None),
    ("cli", ("compute_betti",), "betti.compute_betti", None),
    ("betti", ("compute_betti",), "betti.compute_betti", None),
    ("betti", ("decone",), "arrangement.decone", None),
    ("betti", ("essentialize",), "arrangement.essentialize", None),
    ("betti", ("count_flats",), "flats.count_flats", _flat_counts),
    ("betti", ("is_general_position",), "flats.is_general_position", None),
    ("betti", ("build_intersection_poset",), "flats.build_intersection_poset", _poset_counts),
    ("betti", ("whitney_betti",), "flats.whitney_betti", None),
    ("betti", ("mobius_betti",), "flats.mobius_betti", None),
    ("betti", ("first_page", "second_page", "degeneration_check",
               "graded_from_second_page", "kunneth_shift"), "betti.pages", None),
    ("QMatrix", ("rref",), RREF, None),
    ("QMatrix", ("kernel_basis",), "linalg.kernel_basis", None),
    ("QMatrix", ("__matmul__",), "linalg.matmul", None),
) + tuple(
    ("spectral", (name,), f"spectral.{name}", None)
    for name in ("tensor_double_complex", "total_complex", "cohomology_dims",
                 "pages", "verify_convergence")
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in SITES))


COUNTS = (
    "flats.build_intersection_poset.flats",
    "flats.count_flats.nonempty_subsets",
    "flats.count_flats.empty_subsets",
)


class _Layer:
    __slots__ = ("calls", "errors", "total_s", "self_s", "rref_inside", "depth")

    def __init__(self):
        self.calls = self.errors = self.rref_inside = self.depth = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    """Running totals per layer: calls, inclusive seconds, self seconds, errors.

    `rref_inside` counts the eliminations made while a layer was on the
    stack, which gives the eliminations spent per flat found.
    """

    def __init__(self):
        self._stack = []
        self._saved = []
        self.layers = {layer: _Layer() for layer in LAYERS}
        self.counts = dict.fromkeys(COUNTS, 0)

    def reset(self):
        """Zero every total in place; the installed wrappers keep their records."""
        for rec in self.layers.values():
            rec.__init__()
        self.counts.update(dict.fromkeys(COUNTS, 0))

    def wrap(self, layer, fn, on_result=None):
        rec, rref, stack, counts = self.layers[layer], self.layers[RREF], self._stack, self.counts

        def traced(*args, **kwargs):
            frame = [0.0, rref.calls]  # child seconds, eliminations so far
            stack.append(frame)
            rec.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.errors += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                rec.depth -= 1
                rec.calls += 1
                rec.self_s += elapsed - frame[0]
                if not rec.depth:
                    # A layer that re-enters itself counts once, at its outermost span.
                    rec.total_s += elapsed
                    rec.rref_inside += rref.calls - frame[1]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(counts, result)
            return result

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, mods):
        owners = {"cli": mods.cli, "betti": mods.betti, "QMatrix": mods.linalg.QMatrix,
                  "spectral": mods.spectral}
        for key, attrs, layer, on_result in SITES:
            owner = owners[key]
            for attr in attrs:
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # gone from the program: the layer reads zero
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, on_result))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        return {layer: rec.total_s for layer, rec in self.layers.items()}

    def times(self) -> dict:
        """Inclusive (`.s`) and self (`.self_s`) seconds of every layer."""
        out = {}
        for layer, rec in self.layers.items():
            out[f"{layer}.s"] = rec.total_s
            out[f"{layer}.self_s"] = rec.self_s
        return out

    def work_counts(self) -> dict:
        """Every count that must repeat exactly when the same inputs run again."""
        out = dict(self.counts)
        for layer, rec in self.layers.items():
            out[f"{layer}.calls"] = rec.calls
            out[f"{layer}.errors"] = rec.errors
            out[f"{layer}.rref_inside"] = rec.rref_inside
        return out
