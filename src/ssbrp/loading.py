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

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize._highspy import _core as highs

from .model import (
    DEPOT,
    FinalState,
    Instance,
    LoadingPlan,
    ObjectiveBreakdown,
    ObjectiveWeights,
    Route,
    Solution,
    evaluate_objective,
    solution_from_plans,
)

_INT_TOL = 1e-6
_NODE_LIMIT = 500_000


@dataclass(frozen=True)
class RouteSkeleton:
    """A fixed visit sequence plus, per node, the 1-based indices visiting it."""

    vehicle_id: int
    visits: tuple[int, ...]

    def __post_init__(self):
        if self.visits and (self.visits[0] != DEPOT or self.visits[-1] != DEPOT):
            raise ValueError(f"vehicle {self.vehicle_id}: route must start and end at the depot")

    @classmethod
    def from_route(cls, route: Route) -> RouteSkeleton:
        return cls(route.vehicle_id, route.visits)

    def visit_indices(self, node: int) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.visits, start=1) if v == node)


@dataclass(frozen=True)
class ModelVariable:
    name: str
    kind: str  # "x", "y", or "w0"
    vehicle_id: int
    visit: int  # 1-based visit index; 0 for w0
    node: int  # DEPOT or station id; -1 for w0
    lower: float
    upper: float


@dataclass(frozen=True)
class LoadingVariables:
    """An integral assignment: per-vehicle depot allotments and per-visit moves."""

    depot_allotment: dict[int, int]
    moves: dict[int, tuple[tuple[int, int], ...]]
    objective_value: float


class LoadingModel:
    """The loading integer program in matrix form.

    Variables fixed to zero by their domain (operative moves at balanced
    stations, damaged moves where no damaged bikes exist) are not
    materialized. All materialized variables are integer. Column j is
    ``columns[j] = (kind, vehicle, visit, node)`` with bounds
    ``lower[j]``, ``upper[j]``; ``x_idx``/``y_idx`` map (vehicle, visit)
    and ``w0_idx`` maps vehicle to its column. ``a_ub`` and ``a_eq`` are
    the row blocks of one column-major matrix ``a``.
    """

    def __init__(
        self,
        instance: Instance,
        skeletons: tuple[RouteSkeleton, ...],
        columns: list[tuple[str, int, int, int]],
        lower: np.ndarray,
        upper: np.ndarray,
        x_idx: dict[tuple[int, int], int],
        y_idx: dict[tuple[int, int], int],
        w0_idx: dict[int, int],
        c: np.ndarray,
        constant: float,
        a: np.ndarray,
        b_ub: np.ndarray,
        b_eq: np.ndarray,
    ):
        self.instance = instance
        self.skeletons = skeletons
        self.columns = columns
        self.lower = lower
        self.upper = upper
        self.x_idx = x_idx
        self.y_idx = y_idx
        self.w0_idx = w0_idx
        self.c = c
        self.constant = constant
        self.a = a
        self.a_ub = a[: len(b_ub)]
        self.a_eq = a[len(b_ub) :]
        self.b_ub = b_ub
        self.b_eq = b_eq
        self.branch_order = [j for j, col in enumerate(columns) if col[0] != "w0"]
        coefs = c.tolist() + [constant]
        self.objective_integral = all(float(v).is_integer() for v in coefs)

    @property
    def n_vars(self) -> int:
        return len(self.columns)

    @cached_property
    def variables(self) -> list[ModelVariable]:
        """The columns as named variables with integer bounds, in column order."""
        return [
            ModelVariable(
                f"w0[{vid}]" if kind == "w0" else f"{kind}[{vid},{visit}]",
                kind,
                vid,
                visit,
                node,
                int(lo),
                int(hi),
            )
            for (kind, vid, visit, node), lo, hi in zip(
                self.columns, self.lower.tolist(), self.upper.tolist()
            )
        ]

    def dump(self) -> str:
        """Algebraic text form: `min <expr>`, `s.t.`, constraints, `bounds`."""
        lines = ["min " + self._expr(self.c, self.constant), "s.t."]
        for row, rhs in zip(self.a_ub, self.b_ub):
            lines.append(f"{self._expr(row)} <= {rhs:g}")
        for row, rhs in zip(self.a_eq, self.b_eq):
            lines.append(f"{self._expr(row)} = {rhs:g}")
        lines.append("bounds")
        for v in self.variables:
            lines.append(f"{v.lower:g} <= {v.name} <= {v.upper:g}")
        return "\n".join(lines) + "\n"

    def _expr(self, coefs: np.ndarray, constant: float = 0.0) -> str:
        parts: list[str] = []
        if constant != 0 or not np.any(coefs):
            parts.append(f"{constant:g}")
        for coef, var in zip(coefs, self.variables):
            if coef == 0:
                continue
            mag = abs(float(coef))
            term = var.name if mag == 1 else f"{mag:g} {var.name}"
            if not parts:
                parts.append(term if coef > 0 else f"- {term}")
            else:
                parts.append(f"+ {term}" if coef > 0 else f"- {term}")
        return " ".join(parts)


def build_model(
    instance: Instance,
    skeletons: tuple[RouteSkeleton, ...] | list[RouteSkeleton],
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> LoadingModel:
    """Instantiate the loading program for fixed routes.

    The objective is ``gamma_d`` times the station-weighted leftover
    imbalance plus ``gamma_a`` times the station-weighted damaged bikes left:
    the part of the reported total that the loading decides, times D.
    """
    skeletons = tuple(skeletons)
    fleet = {v.id: v for v in instance.fleet}
    for sk in skeletons:
        if sk.vehicle_id not in fleet:
            raise ValueError(f"vehicle {sk.vehicle_id}: not in fleet")
        for node in sk.visits:
            if node != DEPOT and not instance.is_station(node):
                raise ValueError(f"vehicle {sk.vehicle_id}: unknown node {node}")

    columns: list[tuple[str, int, int, int]] = []  # (kind, vehicle_id, visit, node)
    lower: list[int] = []
    upper: list[int] = []
    x_idx: dict[tuple[int, int], int] = {}  # (vehicle_id, visit) -> column
    y_idx: dict[tuple[int, int], int] = {}
    w0_idx: dict[int, int] = {}
    p_o = instance.depot.operative

    for sk in skeletons:
        if not sk.visits:
            continue
        lid = sk.vehicle_id
        k = fleet[lid].capacity
        for i, node in enumerate(sk.visits, start=1):
            if node == DEPOT:
                x_idx[lid, i] = len(columns)
                y_idx[lid, i] = len(columns) + 1
                columns += (("x", lid, i, node), ("y", lid, i, node))
                lower += (-k, -k)
                upper += (k, 0)
                continue
            s = instance.station(node)
            d = s.imbalance
            if d:  # balanced: x fixed to zero, not materialized
                x_idx[lid, i] = len(columns)
                columns.append(("x", lid, i, node))
                lower.append(0 if d > 0 else max(-k, d))
                upper.append(min(k, d) if d > 0 else 0)
            if s.damaged > 0:
                y_idx[lid, i] = len(columns)
                columns.append(("y", lid, i, node))
                lower.append(0)
                upper.append(min(k, s.damaged))
        w0_idx[lid] = len(columns)
        columns.append(("w0", lid, 0, -1))
        lower.append(0)
        upper.append(p_o)

    n = len(columns)
    routed = [sk for sk in skeletons if sk.visits]
    depot_visits = {sk.vehicle_id: sk.visit_indices(DEPOT) for sk in routed}

    # per-station totals across all vehicles
    c = np.zeros(n)
    constant = 0.0
    visit_cols: dict[int, tuple[list[int], list[int]]] = {}
    for sk in skeletons:
        for i, node in enumerate(sk.visits, start=1):
            if node == DEPOT:
                continue
            xs, ys = visit_cols.setdefault(node, ([], []))
            if (sk.vehicle_id, i) in x_idx:
                xs.append(x_idx[sk.vehicle_id, i])
            if (sk.vehicle_id, i) in y_idx:
                ys.append(y_idx[sk.vehicle_id, i])

    station_rows: list[tuple[list[int], int, int]] = []  # (columns, coefficient, rhs)
    for s in instance.stations:
        xs, ys = visit_cols.get(s.id, ([], []))
        d = s.imbalance
        w_d = weights.gamma_d * s.weight
        w_a = weights.gamma_a * s.weight
        if d > 0:
            constant += w_d * d
            for col in xs:
                c[col] -= w_d
            if xs:  # total pickups never exceed the surplus
                station_rows.append((xs, 1, d))
        elif d < 0:
            constant -= w_d * d
            for col in xs:
                c[col] += w_d
            if xs:  # total deliveries never exceed the deficit
                station_rows.append((xs, -1, -d))
        if s.damaged > 0:
            constant += w_a * s.damaged
            for col in ys:
                c[col] -= w_a
            if ys:
                station_rows.append((ys, 1, s.damaged))
        if d < 0 and xs:
            # deliveries may not leave the station holding more than its docks:
            # p - sum(x) + a - sum(y) <= c  (binding only where bikes arrive)
            station_rows.append((xs + ys, -1, s.capacity - s.operative - s.damaged))

    if instance.depot.capacity is not None:
        # every bike removed from a station ends at the depot
        removed = [col for xs, ys in visit_cols.values() for col in xs + ys]
        if removed:
            station_rows.append((removed, 1, instance.depot.capacity - p_o))

    n_ub = len(station_rows) + (1 if w0_idx else 0) + sum(
        3 * (len(sk.visits) - 1) + len(depot_visits[sk.vehicle_id]) for sk in routed
    )
    n_eq = sum(1 + len(depot_visits[sk.vehicle_id]) for sk in routed)
    # one column-major matrix: its inequality rows, then its equality rows
    a = np.zeros((n_ub + n_eq, n), order="F")
    b_ub = np.zeros(n_ub)
    b_eq = np.zeros(n_eq)
    # single entries are collected here and written in one fancy assignment
    rows: list[int] = []
    cols: list[int] = []
    vals: list[int] = []
    r, e = 0, n_ub  # next free inequality and equality row
    for sk in routed:
        lid = sk.vehicle_id
        nv = len(sk.visits)
        depots = depot_visits[lid]
        # running load: nonnegative by component, within capacity, on every proper
        # prefix 1..j (j < nv), as rows r+3(j-1) (capacity), +1 (operative), +2 (damaged)
        end = r + 3 * (nv - 1)
        b_ub[r:end:3] = fleet[lid].capacity
        for i in range(1, nv + 1):
            first = r + 3 * (i - 1)  # visit i enters every prefix from j = i on
            col = x_idx.get((lid, i))
            if col is not None:
                a[first:end:3, col] = 1
                a[first + 1:end:3, col] = -1
                # everything on board is dropped by the end of the route
                rows.append(e)
                cols.append(col)
                vals.append(1)
            col = y_idx.get((lid, i))
            if col is not None:
                a[first:end:3, col] = 1
                a[first + 2:end:3, col] = -1
                # all damaged bikes on board are unloaded at each depot stop j >= i
                a[e + 1 + bisect_left(depots, i):e + 1 + len(depots), col] = 1
        # cumulative depot takes never exceed the vehicle's allotment
        for m, j in enumerate(depots):
            a[end + m:end + len(depots), x_idx[lid, j]] = 1
        rows += range(end, end + len(depots))
        cols += [w0_idx[lid]] * len(depots)
        vals += [-1] * len(depots)
        r = end + len(depots)
        e += 1 + len(depots)

    if w0_idx:
        rows += [r] * len(w0_idx)
        cols += w0_idx.values()
        vals += [1] * len(w0_idx)
        b_ub[r] = p_o
        r += 1

    for station_cols, coef, rhs in station_rows:
        rows += [r] * len(station_cols)
        cols += station_cols
        vals += [coef] * len(station_cols)
        b_ub[r] = rhs
        r += 1
    a[rows, cols] = vals
    return LoadingModel(
        instance,
        skeletons,
        columns,
        np.array(lower, dtype=float),
        np.array(upper, dtype=float),
        x_idx,
        y_idx,
        w0_idx,
        c,
        constant,
        a,
        b_ub,
        b_eq,
    )


def _assignment_to_result(
    model: LoadingModel, values: np.ndarray | None, objective: float
) -> LoadingVariables:
    given = [] if values is None else values.tolist()

    def value(col: int | None) -> int:
        return 0 if col is None else int(round(given[col]))

    allot = {lid: value(col) for lid, col in model.w0_idx.items()}
    moves: dict[int, tuple[tuple[int, int], ...]] = {}
    for sk in model.skeletons:
        lid = sk.vehicle_id
        allot.setdefault(lid, 0)
        moves[lid] = tuple(
            (value(model.x_idx.get((lid, i))), value(model.y_idx.get((lid, i))))
            for i in range(1, len(sk.visits) + 1)
        )
    return LoadingVariables(allot, moves, objective)


def _canonical_depot_moves(model: LoadingModel, values: np.ndarray) -> np.ndarray:
    """Set the depot moves and allotments of an integral assignment, station moves fixed.

    Among assignments that tie on the objective (it has no depot or w0
    terms), prefer the one without shuttle artifacts (take-then-return):
    each intermediate depot visit takes only what upcoming deliveries still
    need, the final visit drops the rest, and w0 is what the takes add up
    to. When vehicle capacity blocks that rewrite, keep the depot moves and
    set each w0 to the smallest value covering its cumulative depot takes.
    Raises RuntimeError when that assignment violates the program too.
    """
    given = values.tolist()  # Python floats: NumPy scalars cost more per step
    x_cols, w0_cols = model.x_idx, model.w0_idx
    minimal = list(given)
    kept = list(given)
    for sk in model.skeletons:
        if not sk.visits:
            continue
        lid = sk.vehicle_id
        flow = []  # operative bikes gained from stations alone, after each visit
        depots = []
        gained = 0.0
        running = peak = 0.0  # the given depot takes, summed, and their running maximum
        for i, node in enumerate(sk.visits, start=1):
            if node == DEPOT:
                depots.append(i)
                running += given[x_cols[lid, i]]
                peak = max(peak, running)
            elif (lid, i) in x_cols:
                gained += given[x_cols[lid, i]]
            flow.append(gained)
        kept[w0_cols[lid]] = max(0.0, round(peak))
        cum = 0.0
        for j, end in zip(depots, depots[1:]):
            needed = -min(flow[j - 1:end - 1])
            take = max(cum, needed) - cum
            minimal[x_cols[lid, j]] = take
            cum += take
        minimal[x_cols[lid, depots[-1]]] = -(flow[-1] + cum)
        minimal[w0_cols[lid]] = max(0.0, cum)
    bounds = zip(model.lower.tolist(), minimal, model.upper.tolist())
    if all(lo - 1e-9 <= x <= hi + 1e-9 for lo, x, hi in bounds):
        minimal = np.array(minimal)
        try:
            _check_assignment(model, minimal)
            return minimal
        except RuntimeError:
            pass
    kept = np.array(kept)
    _check_assignment(model, kept)
    return kept


def _relaxation(model: LoadingModel, lower: np.ndarray, upper: np.ndarray) -> highs._Highs:
    """The model's LP relaxation as one HiGHS model, with presolve off.

    Presolve is most of a HiGHS run on models this small, and a B&B node
    differs from the last one solved only in column bounds, so each node is
    a warm-started dual simplex re-solve of this model.
    """
    rows, n = model.a.shape
    # compressed sparse columns: nonzeros column by column, rows ascending
    by_column = model.a.ravel(order="F")  # a view: the matrix is column-major
    nonzero = np.flatnonzero(by_column != 0)
    start = np.searchsorted(nonzero, np.arange(n + 1) * rows)
    lp = highs._Highs()
    lp.setOptionValue("output_flag", False)
    lp.setOptionValue("presolve", "off")
    lp.passModel(
        n,
        rows,
        len(nonzero),
        highs.MatrixFormat.kColwise,
        highs.ObjSense.kMinimize,
        0.0,
        model.c,
        lower,
        upper,
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
    on: each integral leaf's depot moves and allotments are set once, by
    ``_canonical_depot_moves``, to draw minimal stock. An LP that HiGHS
    proves infeasible prunes its node; any other non-optimal LP status
    raises RuntimeError.
    """
    if model.n_vars == 0:
        return _assignment_to_result(model, None, model.constant)

    lp = _relaxation(model, model.lower, model.upper)

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
        if model.objective_integral:
            bound = math.ceil(bound - _INT_TOL)
        if bound >= best_val - 1e-9:
            continue
        frac_col = None
        for col in model.branch_order:
            if abs(values[col] - round(values[col])) > _INT_TOL:
                frac_col = col
                break
        if frac_col is None:
            leaf = _canonical_depot_moves(model, np.round(values))
            val = float(model.c @ leaf + model.constant)
            if val < best_val - 1e-9:
                best_val = val
                best_values = leaf
            continue
        f = values[frac_col]
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
    return _assignment_to_result(model, best_values, best_val)


def _check_assignment(model: LoadingModel, values: np.ndarray) -> None:
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
    skeletons: tuple[RouteSkeleton, ...] | list[RouteSkeleton],
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> LoadingVariables:
    """Exhaustively enumerate feasible loadings; oracle for solve_exact.

    Independent of the matrix model: simulates vehicle and station state
    move by move and explores every integral choice. Guard rails keep the
    search space small; breaching them raises ValueError.
    """
    skeletons = tuple(sk for sk in skeletons if sk.visits)
    fleet = {v.id: v for v in instance.fleet}
    total_visits = sum(len(sk.visits) for sk in skeletons)
    if total_visits > _GUARD_VISITS:
        raise ValueError(f"guard rail: {total_visits} visits exceed {_GUARD_VISITS}")
    for sk in skeletons:
        if fleet[sk.vehicle_id].capacity > _GUARD_CAPACITY:
            raise ValueError(f"guard rail: vehicle capacity exceeds {_GUARD_CAPACITY}")
    for s in instance.stations:
        if abs(s.imbalance) > _GUARD_RESIDUAL or s.damaged > _GUARD_RESIDUAL:
            raise ValueError(f"guard rail: station {s.id} residuals exceed {_GUARD_RESIDUAL}")

    rem_imb = {s.id: s.imbalance for s in instance.stations}
    rem_dam = {s.id: s.damaged for s in instance.stations}
    stock = instance.depot.operative
    best = {"val": math.inf, "moves": None, "allot": None}
    moves_now: dict[int, list[tuple[int, int]]] = {sk.vehicle_id: [] for sk in skeletons}
    allot_now: dict[int, int] = {}

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
        sk = skeletons[si]
        vehicle = fleet[sk.vehicle_id]
        if vi == len(sk.visits):
            claimed = max(0, take_peak)
            if claimed > stock:
                return
            allot_now[sk.vehicle_id] = claimed
            stock -= claimed
            if si + 1 < len(skeletons):
                visit(si + 1, 0, 0, 0, 0, 0)
            elif occupancy_ok():
                val = leaf_value()
                if val < best["val"] - 1e-12:
                    best["val"] = val
                    best["moves"] = {
                        vid: tuple(seq) for vid, seq in moves_now.items()
                    }
                    best["allot"] = dict(allot_now)
            stock += claimed
            del allot_now[sk.vehicle_id]
            return
        node = sk.visits[vi]
        k = vehicle.capacity
        last = vi == len(sk.visits) - 1
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
                moves_now[sk.vehicle_id].append((x, y))
                visit(si, vi + 1, op + x, 0, run, peak)
                moves_now[sk.vehicle_id].pop()
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
                moves_now[sk.vehicle_id].append((x, y))
                visit(si, vi + 1, op + x, dam + y, take_run, take_peak)
                moves_now[sk.vehicle_id].pop()
                rem_imb[node] += x
                rem_dam[node] += y

    if skeletons:
        visit(0, 0, 0, 0, 0, 0)
    else:
        best["val"] = leaf_value()
        best["moves"] = {}
        best["allot"] = {}
    if best["moves"] is None:
        # every branch pruned: only possible via occupancy on all leaves,
        # which the all-zero assignment rules out for valid instances
        raise RuntimeError("enumeration found no feasible assignment")
    moves = dict(best["moves"])
    allot = dict(best["allot"])
    for sk in skeletons:
        moves.setdefault(sk.vehicle_id, ())
        allot.setdefault(sk.vehicle_id, 0)
    return LoadingVariables(allot, moves, best["val"])


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
    skeletons = tuple(RouteSkeleton.from_route(r) for r in solution.routes)
    model = build_model(instance, skeletons, weights)
    result = solve_exact(model)
    plans = []
    for route in solution.routes:
        moves = result.moves.get(route.vehicle_id, ())
        plans.append(LoadingPlan(route.vehicle_id, moves))
    return solution_from_plans(instance, solution.routes, plans, weights)


def loading_bound(
    instance: Instance,
    solution: Solution,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> ObjectiveBreakdown:
    """A lower bound on the objective ``reoptimize_solution`` can reach.

    It is the objective of an optimistic final state: every station a
    route visits ends at its target with no damaged bikes, and every other
    station keeps its inventory. Phase two keeps the routes, so the time
    term is the solution's own, and it moves bikes only at visited
    stations, where each residual term is at least 0. ``evaluate_objective``
    adds the same terms in the same order, and float addition, division by
    D > 0 and multiplication by a nonnegative gamma are monotone under
    rounding, so ``total`` never exceeds the reoptimized total, to the bit.
    """
    visited = {node for route in solution.routes for node in route.visits}
    operative = {s.id: s.target if s.id in visited else s.operative for s in instance.stations}
    damaged = {s.id: 0 if s.id in visited else s.damaged for s in instance.stations}
    state = FinalState(operative, damaged, 0, 0, solution.route_times)
    return evaluate_objective(instance, state, weights)
