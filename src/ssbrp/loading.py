"""Exact per-visit loading optimization over fixed routes (phase two).

Given the routes, the loading decisions form a small integer program: one
signed operative move x and damaged move y per visit, plus one depot
allotment w0 per vehicle. The objective counts the residual station
imbalance and the damaged bikes left uncollected, each times its
station's weight and its gamma (``gamma_d`` or ``gamma_a``). The program
is solved exactly by depth-first branch-and-bound with LP-relaxation
bounds. ``loading_bound`` bounds the program's optimum from below without
solving it; ``search.run`` keeps a plan that meets it, built or reloaded by
phase one's code, without solving.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from types import ModuleType
from typing import Sequence

import numpy as np

from .model import (
    DEPOT,
    Instance,
    LoadingPlan,
    ObjectiveBreakdown,
    ObjectiveWeights,
    Route,
    Solution,
    _inventories,
    _route_faults,
    evaluate_objective,
    solution_from_plans,
)

_INT_TOL = 1e-6
_NODE_LIMIT = 500_000
_HIGHS = "scipy.optimize._highspy._core"


def _highs_path(scipy_dirs: Sequence[str]) -> str:
    """The file of SciPy's HiGHS extension module under the given ``scipy`` package directories."""
    dirs = [os.path.join(root, "optimize", "_highspy") for root in scipy_dirs]
    spec = importlib.machinery.PathFinder.find_spec("_core", dirs)
    if spec is not None:
        return spec.origin
    version = importlib.import_module("scipy").__version__
    raise ImportError(f"SciPy {version} has no HiGHS extension module _core in {', '.join(dirs)}")


def _load_highs() -> ModuleType:
    """SciPy's HiGHS binding, loaded from its file without importing ``scipy.optimize``.

    Phase two uses only this extension module, and ``import scipy.optimize``
    first runs some 300 SciPy modules (about 0.6 s) that ssbrp does not use.
    The module is registered under its own name, so a later ``import
    scipy.optimize`` reuses it, and it is reused if SciPy loaded it first.
    """
    if _HIGHS in sys.modules:
        return sys.modules[_HIGHS]
    scipy = importlib.util.find_spec("scipy")  # finds the package without running its init
    if scipy is None:
        raise ModuleNotFoundError("ssbrp needs SciPy, which is not installed", name="scipy")
    path = _highs_path(scipy.submodule_search_locations)
    spec = importlib.util.spec_from_file_location(_HIGHS, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS] = module
    return module


highs = _load_highs()


@dataclass(frozen=True)
class LoadingVariables:
    """An optimal loading: one plan per route given, in that order, and its objective value."""

    plans: tuple[LoadingPlan, ...]
    objective_value: float


@dataclass(frozen=True, eq=False)
class LoadingModel:
    """The loading integer program in matrix form.

    Variables fixed to zero by their domain (operative moves at balanced
    stations, damaged moves where no damaged bikes exist) are not
    materialized. All materialized variables are integer. Column j is
    ``columns[j] = (kind, vehicle, visit, node)`` with bounds ``lower[j]``,
    ``upper[j]``, and ``columns`` is the one index of the columns. They come
    route by route in the order of ``routes``, an empty route having none;
    within a route, visit by visit (visits count from 1), x before y, and
    the route's depot allotment ``("w0", vehicle, 0, -1)`` last. Only the
    kind tells w0 from a move, as a station's id may be -1. A move column's
    vehicle, visit and kind alone place it in the plans. ``branched`` is True
    on the move columns, those ``solve_exact`` branches on, and False on w0.

    The rows, inequalities then equalities, are row-compressed in the types
    HiGHS takes: row r has columns ``row_index[row_start[r]:row_start[r + 1]]``
    and coefficients ``row_value`` at the same places. A route row lists a
    prefix of the route's moves, x moves, y moves or depot x moves (and its
    w0). The dense row blocks ``a_ub`` and ``a_eq`` are built when read.
    """

    routes: tuple[Route, ...]
    columns: list[tuple[str, int, int, int]]
    lower: np.ndarray
    upper: np.ndarray
    branched: np.ndarray
    c: np.ndarray
    constant: float
    row_start: np.ndarray
    row_index: np.ndarray
    row_value: np.ndarray
    b_ub: np.ndarray
    b_eq: np.ndarray

    @property
    def a_ub(self) -> np.ndarray:
        return self._dense(0, len(self.b_ub))

    @property
    def a_eq(self) -> np.ndarray:
        return self._dense(len(self.b_ub), len(self.row_start) - 1)

    def _dense(self, first: int, end: int) -> np.ndarray:
        """Rows ``first`` to ``end - 1`` as a dense array."""
        starts = self.row_start[first : end + 1]
        dense = np.zeros((end - first, self.n_vars))
        rows = np.arange(end - first).repeat(np.diff(starts))
        dense[rows, self.row_index[starts[0] : starts[-1]]] = self.row_value[starts[0] : starts[-1]]
        return dense

    @property
    def n_vars(self) -> int:
        return len(self.columns)

    def dump(self) -> str:
        """Algebraic text form: `min <expr>`, `s.t.`, constraints, `bounds`."""
        names = [
            f"w0[{vid}]" if kind == "w0" else f"{kind}[{vid},{visit}]"
            for kind, vid, visit, _ in self.columns
        ]
        lines = ["min " + _expr(names, self.c, self.constant), "s.t."]
        for row, rhs in zip(self.a_ub, self.b_ub):
            lines.append(f"{_expr(names, row)} <= {rhs:g}")
        for row, rhs in zip(self.a_eq, self.b_eq):
            lines.append(f"{_expr(names, row)} = {rhs:g}")
        lines.append("bounds")
        for name, lo, hi in zip(names, self.lower.tolist(), self.upper.tolist()):
            lines.append(f"{lo:g} <= {name} <= {hi:g}")
        return "\n".join(lines) + "\n"


def _expr(names: list[str], coefs: np.ndarray, constant: float = 0.0) -> str:
    parts: list[str] = []
    if constant != 0 or not np.any(coefs):
        parts.append(f"{constant:g}")
    for coef, name in zip(coefs, names):
        if coef == 0:
            continue
        mag = abs(float(coef))
        term = name if mag == 1 else f"{mag:g} {name}"
        if not parts:
            parts.append(term if coef > 0 else f"- {term}")
        else:
            parts.append(f"+ {term}" if coef > 0 else f"- {term}")
    return " ".join(parts)


def build_model(
    instance: Instance,
    routes: Sequence[Route],
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> LoadingModel:
    """Instantiate the loading program for fixed routes.

    The objective is ``gamma_d`` times the station-weighted leftover
    imbalance plus ``gamma_a`` times the station-weighted damaged bikes left:
    the part of the reported total that the loading decides, times D. Raises
    ValueError with the first route fault ``validate_solution`` reports.
    """
    routes = tuple(routes)
    for faults in _route_faults(instance, routes):
        if faults:
            raise ValueError(faults[0])
    lookup = instance._lookup
    position, weight_at = lookup.position, lookup.weight
    imbalance_at, damaged_at = lookup.imbalance, lookup.damaged
    p_o = instance.depot.operative
    gamma_d, gamma_a = weights.gamma_d, weights.gamma_a

    columns: list[tuple[str, int, int, int]] = []  # (kind, vehicle_id, visit, node)
    lower: list[int] = []
    upper: list[int] = []
    # objective coefficients, each 0.0 - w or 0.0 + w as on a zeroed array: never -0.0
    c: list[float] = []
    w0_cols: list[int] = []
    station_cols: dict[int, tuple[list[int], list[int]]] = {}  # station -> its x and y columns
    # each row is a run of ``src``, the index lists laid end to end: where it starts in
    # ``src``, and its size, negative where the row's coefficients are -1. A route row is
    # a prefix of one of its route's lists, a total row one whole list
    src: list[int] = []
    ub_at: list[int] = []
    ub_sizes: list[int] = []
    b_ub: list[int] = []
    allotments: list[int] = []  # the allotment rows, whose first column, w0, is at -1
    eq_at: list[int] = []
    eq_sizes: list[int] = []  # all coefficients 1, all rhs 0
    for route in routes:
        if not route.visits:
            continue
        lid = route.vehicle_id
        k = lookup.fleet[lid].capacity
        first = len(columns)
        route_x, route_y, depot_x = [], [], []  # the route's x, y and depot x columns so far
        depot_y: list[int] = []  # the route's count of y columns at each depot visit
        for i, node in enumerate(route.visits, start=1):
            j = len(columns)
            if i > 1:  # running load after visit i - 1: within capacity, nonnegative by component
                ub_sizes += (j - first, -len(route_x), -len(route_y))
                b_ub += (k, 0, 0)
            if node == DEPOT:
                columns += (("x", lid, i, node), ("y", lid, i, node))
                lower += (-k, -k)
                upper += (k, 0)
                c += (0.0, 0.0)
                route_x.append(j)
                route_y.append(j + 1)
                depot_x.append(j)
                depot_y.append(len(route_y))
                continue
            at = position[node]
            d, damaged, weight = imbalance_at[at], damaged_at[at], weight_at[at]
            if d or damaged > 0:
                xs, ys = station_cols.setdefault(node, ([], []))
            if d:  # balanced: x fixed to zero, not materialized
                xs.append(j)
                route_x.append(j)
                columns.append(("x", lid, i, node))
                if d > 0:
                    lower.append(0)
                    upper.append(min(k, d))
                    c.append(0.0 - gamma_d * weight)
                else:
                    lower.append(max(-k, d))
                    upper.append(0)
                    c.append(0.0 + gamma_d * weight)
            if damaged > 0:
                ys.append(len(columns))
                route_y.append(len(columns))
                columns.append(("y", lid, i, node))
                lower.append(0)
                upper.append(min(k, damaged))
                c.append(0.0 - gamma_a * weight)
        w0 = len(columns)
        w0_cols.append(w0)
        columns.append(("w0", lid, 0, -1))
        lower.append(0)
        upper.append(p_o)
        c.append(0.0)
        # the route's lists in src: its moves, its x, its y, then w0 and its depot x
        at_x = len(src) + w0 - first
        at_y = at_x + len(route_x)
        at_w = at_y + len(route_y)
        ub_at += (len(src), at_x, at_y) * (len(route.visits) - 1)
        src += range(first, w0)
        src += route_x
        src += route_y
        src.append(w0)
        src += depot_x
        # cumulative depot takes never exceed the vehicle's allotment
        allotments += range(len(ub_sizes), len(ub_sizes) + len(depot_x))
        ub_at += [at_w] * len(depot_x)
        ub_sizes += range(2, len(depot_x) + 2)
        b_ub += [0] * len(depot_x)
        # all on board is dropped by the route's end, and all damaged bikes at each depot stop
        eq_at += (at_x, *[at_y] * len(depot_y))
        eq_sizes += (len(route_x), *depot_y)

    # rows of totals, after the route rows: the allotments share the depot
    # stock, and each visited station's moves across all vehicles, in station order
    total_rows: list[tuple[int, int, int]] = []  # (start in src, signed size, rhs)
    if w0_cols:
        total_rows.append((len(src), len(w0_cols), p_o))
        src += w0_cols
    # each station's x then y columns, the stations in order of first visit
    removed = len(src)  # where the run of all station columns starts
    at_station: dict[int, int] = {}
    for node, (xs, ys) in station_cols.items():
        at_station[node] = len(src)
        src += xs
        src += ys
    constant = 0.0
    for node, d, damaged, weight, room in zip(
        lookup.ids, imbalance_at, damaged_at, weight_at, lookup.docks
    ):
        if d > 0:
            constant += gamma_d * weight * d
        elif d < 0:
            constant -= gamma_d * weight * d
        if damaged > 0:
            constant += gamma_a * weight * damaged
        if node not in station_cols:
            continue
        xs, ys = station_cols[node]  # x columns exist where d != 0, y columns where damaged > 0
        at = at_station[node]
        if d > 0:  # total pickups never exceed the surplus
            total_rows.append((at, len(xs), d))
        elif d < 0:  # total deliveries never exceed the deficit
            total_rows.append((at, -len(xs), -d))
        if ys:
            total_rows.append((at + len(xs), len(ys), damaged))
        if d < 0:
            # deliveries may not leave the station holding more than its docks:
            # p - sum(x) + a - sum(y) <= c  (binding only where bikes arrive)
            total_rows.append((at, -len(xs) - len(ys), room))

    if instance.depot.capacity is not None and station_cols:
        # every bike removed from a station ends at the depot
        total_rows.append((removed, len(src) - removed, instance.depot.capacity - p_o))
    for at, size, rhs in total_rows:
        ub_at.append(at)
        ub_sizes.append(size)
        b_ub.append(rhs)

    signed = np.array(ub_sizes + eq_sizes, dtype=np.int32)
    sizes = np.abs(signed)
    row_start = np.append(0, sizes).cumsum(dtype=np.int32)
    row_value = np.sign(signed).repeat(sizes).astype(float)
    row_value[row_start[allotments]] = -1  # the w0 entries
    branched = np.ones(len(columns), dtype=bool)
    branched[w0_cols] = False
    # entry e of row r is src[at[r] + e - row_start[r]]: one gather, no per-entry Python
    entry_at = np.array(ub_at + eq_at, dtype=np.intp).repeat(sizes)
    entry_at += np.arange(row_start[-1]) - row_start[:-1].repeat(sizes)
    return LoadingModel(
        routes, columns, np.array(lower, dtype=float), np.array(upper, dtype=float), branched,
        np.array(c), constant, row_start, np.array(src, dtype=np.int32)[entry_at],
        row_value, np.array(b_ub, dtype=float), np.zeros(len(eq_sizes)),
    )


def _plans(model: LoadingModel, values: np.ndarray) -> tuple[LoadingPlan, ...]:
    """One plan per route of the model, from an integral assignment of its station moves.

    The objective has no depot or w0 terms, so the depot moves and allotments
    only break ties; they follow from the station moves by one rule, and no
    depot column of ``values`` is read. At each depot visit but the last,
    ``held``, the net operative bikes drawn from the depot so far, becomes
    ``min(max(held, need), room)``: up to the next depot visit, the vehicle
    needs ``need`` (minus the least station flow) on board and can carry
    ``room`` (the least ``k - damaged on board - station flow``). The last
    visit drops the rest, every depot visit the damaged bikes, and w0 is the
    largest ``held``, at least 0: the least stock these station moves draw.
    The assignment's own ``held`` lies in ``[need, room]``, so the result is
    feasible; it is checked all the same.

    One walk over the columns sets the depot moves and writes each move at
    its visit, x then y; a visit with no column moves nothing, so it leaves
    ``need`` and ``room`` as they are.
    """
    leaf = np.rint(values).astype(np.int64).tolist()  # Python ints, cheaper per step
    moves = {route.vehicle_id: [[0, 0] for _ in route.visits] for route in model.routes}
    flow = damaged = 0  # station moves on board so far
    held = peak = 0
    open_at = None  # the x column of the depot visit whose segment is open
    for j, (kind, vid, visit, node) in enumerate(model.columns):
        if kind == "w0":  # the route's end: its last depot visit drops the rest
            leaf[open_at] = opened[0] = -(flow + held)
            leaf[j] = peak
            flow = damaged = held = peak = 0
            open_at = None
            continue
        move = moves[vid][visit - 1]
        if node != DEPOT:
            if kind == "x":
                flow += leaf[j]
            else:
                damaged += leaf[j]
            move[kind == "y"] = leaf[j]
            need = -flow if -flow > need else need
            free = k - damaged - flow
            room = free if free < room else room
        elif kind == "y":
            leaf[j] = move[1] = -damaged
            damaged = 0
        else:
            if open_at is None:  # the route's first visit: x within ±k
                k = int(model.upper[j])
            else:
                drawn = held if held > need else need
                drawn = drawn if drawn < room else room
                leaf[open_at] = opened[0] = drawn - held
                held = drawn
                peak = held if held > peak else peak
            open_at, opened, need, room = j, move, -flow, k - flow
    _check_assignment(model, np.array(leaf))
    return tuple(
        LoadingPlan(route.vehicle_id, tuple(map(tuple, moves[route.vehicle_id])))
        for route in model.routes
    )


_solvers = threading.local()  # the calling thread's HiGHS instance, made on its first solve


def _relaxation(model: LoadingModel) -> highs._Highs:
    """The model's LP relaxation, passed to the calling thread's HiGHS instance.

    HiGHS takes the model's rows as it holds them, row-compressed, and
    ``passModel`` transposes them into the column-compressed matrix it solves.
    Each thread keeps one HiGHS instance, made on its first solve with
    output off and presolve off: presolve is most of a HiGHS run on models
    this small. ``clearModel`` resets the model, the basis and the solution
    of the last solve, options aside, so nothing carries over from one solve
    to the next. Within a solve, a B&B node differs from the last one solved
    only in column bounds, so each node is a warm-started dual simplex
    re-solve of this model. The instance keeps its simplex workspace after
    ``clearModel``, so a thread that solved a large model holds that memory
    until the thread ends.
    """
    lp = getattr(_solvers, "lp", None)
    if lp is None:
        lp = _solvers.lp = highs._Highs()
        lp.setOptionValue("output_flag", False)
        lp.setOptionValue("presolve", "off")
    lp.clearModel()
    lp.passModel(
        model.n_vars, len(model.row_start) - 1, len(model.row_index), highs.MatrixFormat.kRowwise,
        highs.ObjSense.kMinimize, 0.0, model.c, model.lower, model.upper,
        np.concatenate((np.full(len(model.b_ub), -highs.kHighsInf), model.b_eq)),
        np.concatenate((model.b_ub, model.b_eq)),
        model.row_start, model.row_index, model.row_value, np.zeros(model.n_vars, dtype=np.int32),
    )
    return lp


# name kept from the SciPy call it replaced: bench/tracing.py wraps it as the loading.lp span
def linprog(
    lp: highs._Highs, lower: np.ndarray, upper: np.ndarray
) -> tuple[highs.HighsModelStatus, float, list[float] | None]:
    """Re-solve the relaxation under new column bounds.

    Returns the HiGHS model status and, when it is optimal, the LP
    objective (without the model's constant) and the column values.
    """
    lp.changeColsBounds(len(lower), np.arange(len(lower), dtype=np.int32), lower, upper)
    lp.run()
    status = lp.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return status, math.nan, None
    return status, lp.getObjectiveValue(), lp.getSolution().col_value


def solve_exact(model: LoadingModel) -> LoadingVariables:
    """Minimize the loading program exactly by LP-based branch-and-bound.

    Deterministic: branching follows (vehicle, visit, x before y) order,
    explores the larger-magnitude value first, and ties between equal
    incumbents keep the first one found. A node is pruned on its LP bound
    when that cannot beat the incumbent. Depot allotments are never branched
    on: an integral leaf is scored on its station moves, and the depot moves
    and allotments of the leaf kept follow from them by one rule, in
    ``_plans``, that draws the least stock. An LP that HiGHS proves
    infeasible prunes its node; any other non-optimal LP status raises
    RuntimeError. Returns one plan per route of the model, in order; an
    empty route gets an empty plan.

    The LPs run on the calling thread's one HiGHS instance (``_relaxation``),
    whose ``clearModel`` at the start of each solve resets the model and the
    basis: nothing carries over from an earlier solve, one that raised
    included, so a solve's result does not depend on what the thread solved
    before. Threads may solve at once, each on its own instance.
    """
    if model.n_vars == 0:
        return LoadingVariables(_plans(model, np.zeros(0)), model.constant)

    lp = _relaxation(model)

    best_val = math.inf
    best_values: np.ndarray | None = None
    # column bounds of the open nodes; a child copies the array it changes
    stack = [(model.lower, model.upper)]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > _NODE_LIMIT:
            raise RuntimeError("branch-and-bound node limit exceeded")
        lo, hi = stack.pop()
        status, fun, values = linprog(lp, lo, hi)
        if status == highs.HighsModelStatus.kInfeasible:
            continue
        if values is None:
            raise RuntimeError(f"LP relaxation not solved: HiGHS model status {status.name}")
        if fun + model.constant >= best_val - 1e-9:
            continue
        values = np.array(values)
        rounded = np.round(values)
        fractional = (np.abs(values - rounded) > _INT_TOL) & model.branched
        if not fractional.any():  # c is 0.0 on the depot and w0 columns, which _plans sets
            val = float(model.c @ rounded + model.constant)
            if val < best_val - 1e-9:
                best_val = val
                best_values = rounded
            continue
        frac_col = int(fractional.argmax())  # the first fractional move
        f = float(values[frac_col])
        down = (lo, hi.copy())
        down[1][frac_col] = math.floor(f)
        up = (lo.copy(), hi)
        up[0][frac_col] = math.ceil(f)
        # larger magnitude explored first (DFS pops the last pushed)
        if model.upper[frac_col] <= 0 or (model.lower[frac_col] < 0 and f < 0):
            first, second = down, up
        else:
            first, second = up, down
        stack.append(second)
        stack.append(first)

    if best_values is None:
        raise RuntimeError("loading program infeasible for a structurally valid route")
    return LoadingVariables(_plans(model, best_values), best_val)


def _check_assignment(model: LoadingModel, values: np.ndarray) -> None:
    if np.any(values < model.lower - 1e-6) or np.any(values > model.upper + 1e-6):
        raise RuntimeError("rounded assignment violates a column bound")
    # row sums; for an empty row reduceat gives the entry at its start, the next row's
    # first or the 0.0 appended past the end, so empty rows are set to 0
    starts = model.row_start[:-1]
    lhs = np.add.reduceat(np.append(model.row_value * values[model.row_index], 0.0), starts)
    lhs[starts == model.row_start[1:]] = 0.0
    n_ub = len(model.b_ub)
    if np.any(lhs[:n_ub] > model.b_ub + 1e-6):
        raise RuntimeError("rounded assignment violates an inequality")
    if np.any(np.abs(lhs[n_ub:] - model.b_eq) > 1e-6):
        raise RuntimeError("rounded assignment violates an equality")


def reoptimize_solution(
    instance: Instance,
    solution: Solution,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> Solution:
    """Replace a solution's loading plans with exactly optimal ones.

    Routes and route times are untouched; only the moves change. Phase two
    minimizes the same gamma- and station-weighted residuals that the
    objective reports, so the total never rises, whatever the weights.
    """
    plans = solve_exact(build_model(instance, solution.routes, weights)).plans
    return solution_from_plans(instance, solution.routes, plans, weights)


def loading_bound(
    instance: Instance,
    solution: Solution,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> ObjectiveBreakdown:
    """A lower bound on the objective ``reoptimize_solution`` can reach.

    It is the objective of an optimistic final state: every station a
    route visits ends with no damaged bikes and at its target, short only
    of the operative bikes no plan can bring, and every other station keeps
    its inventory.

    Phase two delivers a bike either from the depot stock, which all routes
    draw on at most ``p_o`` in all (``sum w0 <= p_o``), or from a pickup
    earlier on the same route: a route's running load never drops below 0,
    and bikes it drops at the depot count against its own allotment only.
    It picks up at most a station's surplus in all, moves no operative bike
    at a balanced station, and delivers at most a station's deficit at each
    visit. So a route's deliveries from pickups are at most ``matched``, a
    greedy walk in visit order: the pool gains each surplus station's whole
    surplus at its first visit on the route, and each deficit visit takes
    ``min(pool, the station's whole deficit)`` from it. No plan beats the
    greedy, which delivers as early as the pickups so far allow (capping a
    visit at the deficit that earlier visits left would be wrong: a plan may
    skip a visit and serve the station later). Across all routes, those
    deliveries are also at most the surplus of the useful stations: those
    that some route visits before one of its own deficit visits, each
    counted once. So deliveries are at most ``p_o + min(sum matched, sum
    useful surplus)``. Where the visited deficits exceed that supply, the
    shortfall stays at the visited deficit stations, lowest weight first:
    no plan leaves less weighted residual there.

    Phase two keeps the routes, so the time term is the solution's own, and
    it moves bikes only at visited stations, where each damaged residual is
    at least 0. ``evaluate_objective`` adds the same terms in the same
    order, and float addition, division by D > 0 and multiplication by a
    nonnegative gamma are monotone under rounding. Without a shortfall each
    imbalance term is at most phase two's, so their sum is too. A shortfall
    breaks that term-by-term order: at weight 0.1, residuals 3 and 3 sum to
    0.6000000000000001 but 1 and 5 to 0.6. So it is placed only when every
    station weight is an integer and ``sum w * |imbalance|`` is below 2**53
    (``Instance._lookup.exact_sums``). Then each term and partial sum of
    either numerator is an integer that a float holds exactly, since no plan
    leaves a station further from its target than it starts. Either way ``total``
    never exceeds the reoptimized total, to the bit.

    ``run`` uses the bound twice. Routes whose bound cannot beat the
    incumbent need no phase two. A feasible plan whose total is not above
    the bound, as constructed or as ``construction._reload`` finds it, is
    optimal for its routes, as no plan over them scores below it, so phase
    two could not lower its total.
    """
    lookup = instance._lookup
    position, imbalance_at = lookup.position, lookup.imbalance
    visited: set[int] = set()
    useful: set[int] = set()
    matched = 0
    for route in solution.routes:
        visited.update(route.visits)
        pool = 0
        seen: set[int] = set()  # surplus stations met so far on this route
        waiting: list[int] = []  # those met since the route's last deficit visit
        for node in route.visits:
            d = 0 if node == DEPOT else imbalance_at[position[node]]
            if d > 0:
                if node not in seen:
                    seen.add(node)
                    waiting.append(node)
                    pool += d
            elif d < 0 and pool:  # an empty pool takes nothing, and nothing waits
                take = pool if pool < -d else -d
                pool -= take
                matched += take
                useful.update(waiting)
                waiting.clear()
    visited.discard(DEPOT)
    imbalance = {sid: imbalance_at[position[sid]] for sid in visited}
    supply = instance.depot.operative + min(matched, sum(imbalance[s] for s in useful))
    shortfall = -supply - sum(d for d in imbalance.values() if d < 0)
    operative, damaged = _inventories(instance)
    for sid in visited:
        operative[sid] -= imbalance[sid]  # its target
        damaged[sid] = 0
    if shortfall > 0 and lookup.exact_sums:
        for sid, deficit in lookup.shortfall_order:
            if sid in visited:
                left = shortfall if shortfall < deficit else deficit
                operative[sid] -= left
                shortfall -= left
                if not shortfall:
                    break
    return evaluate_objective(instance, operative, damaged, solution.route_times, weights)
