"""Exact per-visit loading optimization over fixed routes (phase two).

Given the routes, the loading decisions form a small integer program: one
signed operative move x and damaged move y per visit, plus one depot
allotment w0 per vehicle. The objective counts the residual station
imbalance and the damaged bikes left uncollected, each times its
station's weight and its gamma (``gamma_d`` or ``gamma_a``). The program
is solved exactly by depth-first branch-and-bound with LP-relaxation
bounds; an independent brute-force enumerator over the same constraint
semantics serves as a verification oracle for small cases.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from itertools import chain
from types import ModuleType
from typing import Sequence

import numpy as np

from .model import (
    DEPOT,
    FinalState,
    Instance,
    LoadingPlan,
    ObjectiveBreakdown,
    ObjectiveWeights,
    Route,
    Solution,
    _route_faults,
    evaluate_objective,
    solution_from_plans,
)

_INT_TOL = 1e-6
_NODE_LIMIT = 500_000
_HIGHS = "scipy.optimize._highspy._core"


def _highs_path(scipy_dirs: Sequence[str]) -> str:
    """The file of SciPy's HiGHS extension module under the given ``scipy`` package directories."""
    for root in scipy_dirs:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                return path
    version = importlib.import_module("scipy").__version__
    searched = ", ".join(os.path.join(root, "optimize", "_highspy") for root in scipy_dirs)
    raise ImportError(f"SciPy {version} has no HiGHS extension module _core in {searched}")


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
    kind tells w0 from a move, as a station's id may be -1. ``a_ub`` and
    ``a_eq`` are the row blocks of one column-major matrix ``a``.

    ``slots[j]`` places move column j in the routes' plans laid out flat:
    route by route, visit by visit, x then y, so visit i of a route whose
    plan starts at slot b holds slots ``b + 2(i - 1)`` and ``b + 2(i - 1) + 1``.
    A w0 column has slot -1. ``integral`` tells whether every objective
    coefficient and the constant is an integer.
    """

    routes: tuple[Route, ...]
    columns: list[tuple[str, int, int, int]]
    lower: np.ndarray
    upper: np.ndarray
    c: np.ndarray
    constant: float
    a: np.ndarray
    b_ub: np.ndarray
    b_eq: np.ndarray
    slots: np.ndarray
    integral: bool

    @property
    def a_ub(self) -> np.ndarray:
        return self.a[: len(self.b_ub)]

    @property
    def a_eq(self) -> np.ndarray:
        return self.a[len(self.b_ub) :]

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
    capacity = {v.id: v.capacity for v in instance.fleet}
    p_o = instance.depot.operative
    stations = instance._loading_rows
    gamma_d, gamma_a = weights.gamma_d, weights.gamma_a

    columns: list[tuple[str, int, int, int]] = []  # (kind, vehicle_id, visit, node)
    lower: list[int] = []
    upper: list[int] = []
    # objective coefficients, each 0.0 - w or 0.0 + w as on a zeroed array: never -0.0
    c: list[float] = []
    slots: list[int] = []
    w0_cols: list[int] = []
    station_cols: dict[int, tuple[list[int], list[int]]] = {}  # station -> its x and y columns
    slot = 0
    for route in routes:
        if not route.visits:
            continue
        lid = route.vehicle_id
        k = capacity[lid]
        for i, node in enumerate(route.visits, start=1):
            if node == DEPOT:
                columns += (("x", lid, i, node), ("y", lid, i, node))
                lower += (-k, -k)
                upper += (k, 0)
                c += (0.0, 0.0)
                slots += (slot, slot + 1)
                slot += 2
                continue
            d, damaged, weight, _ = stations[node]
            if d or damaged > 0:
                xs, ys = station_cols.setdefault(node, ([], []))
            if d:  # balanced: x fixed to zero, not materialized
                xs.append(len(columns))
                columns.append(("x", lid, i, node))
                if d > 0:
                    lower.append(0)
                    upper.append(min(k, d))
                    c.append(0.0 - gamma_d * weight)
                else:
                    lower.append(max(-k, d))
                    upper.append(0)
                    c.append(0.0 + gamma_d * weight)
                slots.append(slot)
            if damaged > 0:
                ys.append(len(columns))
                columns.append(("y", lid, i, node))
                lower.append(0)
                upper.append(min(k, damaged))
                c.append(0.0 - gamma_a * weight)
                slots.append(slot + 1)
            slot += 2
        w0_cols.append(len(columns))
        columns.append(("w0", lid, 0, -1))
        lower.append(0)
        upper.append(p_o)
        c.append(0.0)
        slots.append(-1)

    # rows of totals, after the route rows: the allotments share the depot
    # stock, and each visited station's moves across all vehicles, in station order
    total_rows: list[tuple[list[int], int, int]] = []  # (columns, coefficient, rhs)
    if w0_cols:
        total_rows.append((w0_cols, 1, p_o))
    constant = 0.0
    for node, (d, damaged, weight, room) in stations.items():
        if d > 0:
            constant += gamma_d * weight * d
        elif d < 0:
            constant -= gamma_d * weight * d
        if damaged > 0:
            constant += gamma_a * weight * damaged
        if node not in station_cols:
            continue
        xs, ys = station_cols[node]  # x columns exist where d != 0, y columns where damaged > 0
        if d > 0:  # total pickups never exceed the surplus
            total_rows.append((xs, 1, d))
        elif d < 0:  # total deliveries never exceed the deficit
            total_rows.append((xs, -1, -d))
        if ys:
            total_rows.append((ys, 1, damaged))
        if d < 0:
            # deliveries may not leave the station holding more than its docks:
            # p - sum(x) + a - sum(y) <= c  (binding only where bikes arrive)
            total_rows.append((xs + ys, -1, room))

    if instance.depot.capacity is not None:
        # every bike removed from a station ends at the depot
        removed = [col for xs, ys in station_cols.values() for col in xs + ys]
        if removed:
            total_rows.append((removed, 1, instance.depot.capacity - p_o))

    routed = [route for route in routes if route.visits]
    n_ub = len(total_rows) + sum(
        3 * (len(route.visits) - 1) + route.visits.count(DEPOT) for route in routed
    )
    n_eq = sum(1 + route.visits.count(DEPOT) for route in routed)
    # one column-major matrix: its inequality rows, then its equality rows
    a = np.zeros((n_ub + n_eq, len(columns)), order="F")
    b_ub = np.zeros(n_ub)
    b_eq = np.zeros(n_eq)
    slot_of = np.array(slots, dtype=np.intp)
    r, e = 0, n_ub  # next free inequality and equality row
    first = 0  # the route's first column; its block ends at its w0 column
    base = 0  # the route's first slot
    for route, w0 in zip(routed, w0_cols):
        nv, width = len(route.visits), w0 - first
        depots = [i for i, node in enumerate(route.visits) if node == DEPOT]
        # inc[i, t, j] = 1 where column first + j is the x (t = 0) or y (t = 1)
        # move of visit i + 1; its prefix sums are the loads after each visit.
        # Each column enters once, so every sum is 0 or 1: int8 sums are the
        # fastest, and integers hold no -0.0 to write into ``a``
        inc = np.zeros((nv, 2, width), dtype=np.int8)
        # a view: flat index (2 * i + t) * width + j, and 2 * i + t is the slot in the route
        inc.ravel()[(slot_of[first:w0] - base) * width + np.arange(width)] = 1
        load = inc.cumsum(axis=0, dtype=np.int8)
        x, y = load[:, 0], load[:, 1]
        # running load: nonnegative by component, within capacity, on every proper
        # prefix 1..j (j < nv), as rows r+3(j-1) (capacity), +1 (operative), +2 (damaged)
        end = r + 3 * (nv - 1)
        a[r:end:3, first:w0] = x[:-1] + y[:-1]
        a[r + 1:end:3, first:w0] = -x[:-1]
        a[r + 2:end:3, first:w0] = -y[:-1]
        b_ub[r:end:3] = capacity[route.vehicle_id]
        # cumulative depot takes never exceed the vehicle's allotment
        a[end:end + len(depots), first:w0] = inc[depots, 0].cumsum(axis=0, dtype=np.int8)
        a[end:end + len(depots), w0] = -1
        # everything on board is dropped by the end of the route, and all
        # damaged bikes on board are unloaded at each depot stop
        a[e, first:w0] = x[-1]
        a[e + 1:e + 1 + len(depots), first:w0] = y[depots]
        r = end + len(depots)
        e += 1 + len(depots)
        first = w0 + 1
        base += 2 * nv

    if total_rows:  # the last inequality rows, written in one fancy assignment
        row_cols, coefs, b_ub[r:] = zip(*total_rows)  # columns, coefficient, rhs
        sizes = list(map(len, row_cols))
        rows = np.arange(r, n_ub).repeat(sizes)
        a[rows, list(chain.from_iterable(row_cols))] = np.repeat(coefs, sizes)
    integral = constant.is_integer() and all(map(float.is_integer, c))
    return LoadingModel(
        routes, columns, np.array(lower, dtype=float), np.array(upper, dtype=float),
        np.array(c), constant, a, b_ub, b_eq, slot_of, integral,
    )


def _plans(model: LoadingModel, values: np.ndarray) -> tuple[LoadingPlan, ...]:
    """One plan per route of the model, read from an integral assignment."""
    # the flat plans, plus one last entry where the w0 columns (slot -1) land
    flat = np.zeros(2 * sum(len(route.visits) for route in model.routes) + 1, dtype=np.int64)
    flat[model.slots] = np.rint(values)
    moves = flat.tolist()
    plans = []
    at = 0
    for route in model.routes:
        end = at + 2 * len(route.visits)
        pairs = zip(moves[at:end:2], moves[at + 1:end:2])  # (x, y) of each visit
        plans.append(LoadingPlan(route.vehicle_id, tuple(pairs)))
        at = end
    return tuple(plans)


def _canonical_depot_moves(model: LoadingModel, values: np.ndarray) -> np.ndarray:
    """Set the depot moves and allotments of an integral assignment from its station moves.

    The objective has no depot or w0 terms, so this breaks ties; it reads no
    depot column of ``values``. At each depot visit but the last, ``held``,
    the net operative bikes drawn from the depot so far, becomes
    ``min(max(held, need), room)``: up to the next depot visit, the vehicle
    needs ``need`` (minus the least station flow) on board and can carry
    ``room`` (the least ``k - damaged on board - station flow``). The last
    visit drops the rest, every depot visit the damaged bikes, and w0 is the
    largest ``held``, at least 0: the least stock these station moves draw.
    The assignment's own ``held`` lies in ``[need, room]``, so the result is
    feasible; it is checked all the same.

    One walk over the columns: a visit with no column moves nothing, so it
    leaves ``need`` and ``room`` as they are.
    """
    leaf = values.tolist()  # Python floats: NumPy scalars cost more per step
    flow = damaged = 0.0  # station moves on board so far
    held = peak = 0.0
    open_at = None  # the x column of the depot visit whose segment is open
    for j, (kind, _, _, node) in enumerate(model.columns):
        if kind == "w0":  # the route's end: its last depot visit drops the rest
            leaf[open_at] = -(flow + held)
            leaf[j] = peak
            flow = damaged = held = peak = 0.0
            open_at = None
        elif node != DEPOT:
            if kind == "x":
                flow += leaf[j]
            else:
                damaged += leaf[j]
            need = max(need, -flow)
            room = min(room, k - damaged - flow)
        elif kind == "y":
            leaf[j] = -damaged
            damaged = 0.0
        else:
            if open_at is None:  # the route's first visit: x within ±k
                k = float(model.upper[j])
            else:
                drawn = min(max(held, need), room)
                leaf[open_at] = drawn - held
                held = drawn
                peak = max(peak, held)
            open_at, need, room = j, -flow, k - flow
    leaf = np.array(leaf)
    _check_assignment(model, leaf)
    return leaf


_solvers = threading.local()  # the calling thread's HiGHS instance, made on its first solve


def _relaxation(model: LoadingModel) -> highs._Highs:
    """The model's LP relaxation, passed to the calling thread's HiGHS instance.

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
    rows, n = model.a.shape
    # compressed sparse columns: nonzeros column by column, rows ascending
    by_column = model.a.ravel(order="F")  # a view: the matrix is column-major
    nonzero = np.flatnonzero(by_column != 0)
    start = np.searchsorted(nonzero, np.arange(n + 1) * rows)
    lp.passModel(
        n,
        rows,
        len(nonzero),
        highs.MatrixFormat.kColwise,
        highs.ObjSense.kMinimize,
        0.0,
        model.c,
        model.lower,
        model.upper,
        np.concatenate((np.full(len(model.b_ub), -highs.kHighsInf), model.b_eq)),
        np.concatenate((model.b_ub, model.b_eq)),
        start.astype(np.int32),
        (nonzero % rows).astype(np.int32),
        by_column[nonzero],
        np.zeros(n, dtype=np.int32),
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
    return status, lp.getInfo().objective_function_value, lp.getSolution().col_value


def solve_exact(model: LoadingModel) -> LoadingVariables:
    """Minimize the loading program exactly by LP-based branch-and-bound.

    Deterministic: branching follows (vehicle, visit, x before y) order,
    explores the larger-magnitude value first, and ties between equal
    incumbents keep the first one found. Depot allotments are never branched
    on: each integral leaf keeps its station moves, and its depot moves and
    allotments follow from them by one rule, ``_canonical_depot_moves``,
    that draws the least stock. An LP that HiGHS proves infeasible prunes
    its node; any other non-optimal LP status raises RuntimeError. Returns
    one plan per route of the model, in order; an empty route gets an empty
    plan.

    The LPs run on the calling thread's one HiGHS instance (``_relaxation``),
    whose ``clearModel`` at the start of each solve resets the model and the
    basis: nothing carries over from an earlier solve, one that raised
    included, so a solve's result does not depend on what the thread solved
    before. Threads may solve at once, each on its own instance.
    """
    if model.n_vars == 0:
        return LoadingVariables(_plans(model, np.zeros(0)), model.constant)

    lp = _relaxation(model)
    moves = model.slots >= 0  # the columns branched on, in column order

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
        bound = fun + model.constant
        if model.integral:
            bound = math.ceil(bound - _INT_TOL)
        if bound >= best_val - 1e-9:
            continue
        values = np.array(values)
        rounded = np.round(values)
        fractional = (np.abs(values - rounded) > _INT_TOL) & moves
        if not fractional.any():
            leaf = _canonical_depot_moves(model, rounded)
            val = float(model.c @ leaf + model.constant)
            if val < best_val - 1e-9:
                best_val = val
                best_values = leaf
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
    lhs = model.a @ values
    n_ub = len(model.b_ub)
    if np.any(lhs[:n_ub] > model.b_ub + 1e-6):
        raise RuntimeError("rounded assignment violates an inequality")
    if np.any(np.abs(lhs[n_ub:] - model.b_eq) > 1e-6):
        raise RuntimeError("rounded assignment violates an equality")


_GUARD_VISITS = 12
_GUARD_CAPACITY = 6
_GUARD_RESIDUAL = 6


def brute_force_loading(
    instance: Instance,
    routes: Sequence[Route],
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> LoadingVariables:
    """Exhaustively enumerate feasible loadings; oracle for solve_exact.

    Shares only the route check with the matrix model: simulates vehicle
    and station state move by move and explores every integral choice.
    Guard rails keep the search space small; breaching them raises
    ValueError.
    """
    routes = tuple(routes)
    for faults in _route_faults(instance, routes):
        if faults:
            raise ValueError(faults[0])
    capacity = {v.id: v.capacity for v in instance.fleet}
    total_visits = sum(len(route.visits) for route in routes)
    if total_visits > _GUARD_VISITS:
        raise ValueError(f"guard rail: {total_visits} visits exceed {_GUARD_VISITS}")
    for route in routes:
        if route.visits and capacity[route.vehicle_id] > _GUARD_CAPACITY:
            raise ValueError(f"guard rail: vehicle capacity exceeds {_GUARD_CAPACITY}")
    for s in instance.stations:
        if abs(s.imbalance) > _GUARD_RESIDUAL or s.damaged > _GUARD_RESIDUAL:
            raise ValueError(f"guard rail: station {s.id} residuals exceed {_GUARD_RESIDUAL}")

    rem_imb = {s.id: s.imbalance for s in instance.stations}
    rem_dam = {s.id: s.damaged for s in instance.stations}
    stock = instance.depot.operative
    best = {"val": math.inf, "moves": None}
    moves_now: list[list[tuple[int, int]]] = [[] for _ in routes]

    def leaf_value() -> float:
        total = 0.0
        for s in instance.stations:
            total += s.weight * (
                weights.gamma_d * abs(rem_imb[s.id]) + weights.gamma_a * rem_dam[s.id]
            )
        return total

    def occupancy_ok() -> bool:
        removed = 0
        for s in instance.stations:
            p_hat = s.target + rem_imb[s.id]
            if p_hat + rem_dam[s.id] > s.capacity:
                return False
            removed += s.operative - p_hat + s.damaged - rem_dam[s.id]
        depot_capacity = instance.depot.capacity
        return depot_capacity is None or instance.depot.operative + removed <= depot_capacity

    def visit(si: int, vi: int, op: int, dam: int, take_run: int, take_peak: int) -> None:
        nonlocal stock
        if si == len(routes):
            if occupancy_ok():
                val = leaf_value()
                if val < best["val"] - 1e-12:
                    best["val"] = val
                    best["moves"] = [tuple(seq) for seq in moves_now]
            return
        route = routes[si]
        if vi == len(route.visits):
            # the route draws the largest running depot take from the stock
            claimed = max(0, take_peak)
            if claimed <= stock:
                stock -= claimed
                visit(si + 1, 0, 0, 0, 0, 0)
                stock += claimed
            return
        node = route.visits[vi]
        k = capacity[route.vehicle_id]
        last = vi == len(route.visits) - 1
        if node == DEPOT:
            y = -dam  # every damaged bike on board is dropped here
            if last:
                x_choices = [-op]
            else:
                x_choices = range(-op, k - op + 1)
            for x in x_choices:
                run = take_run + x
                peak = max(take_peak, run)
                if peak > stock:
                    continue
                moves_now[si].append((x, y))
                visit(si, vi + 1, op + x, 0, run, peak)
                moves_now[si].pop()
            return
        s = instance.station(node)
        d0 = s.imbalance
        free = k - op - dam
        if d0 > 0:
            x_lo, x_hi = 0, min(free, rem_imb[node])
        elif d0 < 0:
            x_lo, x_hi = max(-op, rem_imb[node]), 0
        else:
            x_lo = x_hi = 0
        for x in range(x_lo, x_hi + 1):
            y_hi = min(free - x, rem_dam[node])
            for y in range(0, y_hi + 1):
                rem_imb[node] -= x
                rem_dam[node] -= y
                moves_now[si].append((x, y))
                visit(si, vi + 1, op + x, dam + y, take_run, take_peak)
                moves_now[si].pop()
                rem_imb[node] += x
                rem_dam[node] += y

    visit(0, 0, 0, 0, 0, 0)
    if best["moves"] is None:
        # every branch pruned: only possible via occupancy on all leaves,
        # which the all-zero assignment rules out for valid instances
        raise RuntimeError("enumeration found no feasible assignment")
    plans = tuple(LoadingPlan(r.vehicle_id, moves) for r, moves in zip(routes, best["moves"]))
    return LoadingVariables(plans, best["val"])


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
    (``Instance._exact_sums``). Then each term and partial sum of either
    numerator is an integer that a float holds exactly, since no plan leaves
    a station further from its target than it starts. Either way ``total``
    never exceeds the reoptimized total, to the bit.

    ``run`` uses the bound twice. Routes whose bound cannot beat the
    incumbent need no phase two. A constructed plan whose total is not
    above the bound is optimal for its routes, as no plan over them scores
    below it, so phase two could not lower its total.
    """
    imbalance = instance._imbalance
    visited: set[int] = set()
    useful: set[int] = set()
    matched = 0
    for route in solution.routes:
        visited.update(route.visits)
        pool = 0
        seen: set[int] = set()  # surplus stations met so far on this route
        waiting: list[int] = []  # those met since the route's last deficit visit
        for node in route.visits:
            d = imbalance[node]
            if d > 0:
                if node not in seen:
                    seen.add(node)
                    waiting.append(node)
                    pool += d
            elif d < 0:
                take = min(pool, -d)
                pool -= take
                matched += take
                useful.update(waiting)
                waiting.clear()
    stations = instance.stations
    supply = instance.depot.operative + min(matched, sum(imbalance[s] for s in useful))
    shortfall = -supply - sum(imbalance[n] for n in visited if imbalance[n] < 0)
    operative, damaged = (inventory.copy() for inventory in instance._start)
    visited.discard(DEPOT)
    for sid in visited:
        operative[sid] = instance._by_id[sid].target
        damaged[sid] = 0
    if shortfall > 0 and instance._exact_sums:
        deficits = sorted(
            (s for s in stations if s.id in visited and s.imbalance < 0), key=lambda s: s.weight
        )
        for s in deficits:
            left = min(shortfall, -s.imbalance)
            operative[s.id] -= left
            shortfall -= left
            if not shortfall:
                break
    state = FinalState(operative, damaged, 0, 0, solution.route_times)
    return evaluate_objective(instance, state, weights)
