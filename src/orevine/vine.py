"""R-vine copula models: structure, sequential estimation, density, sampling.

A regular vine on d variables is a nested tree sequence T_1..T_{d-1}: T_1
spans the variables, the nodes of T_i are the edges of T_{i-1}, and any two
nodes joined at level i >= 2 must share exactly one node of the previous
tree (proximity).  Each edge couples a conditioned pair of variables given
a conditioning set; with the simplifying assumption the joint density
factorizes into bivariate pair-copula densities and the marginals, with
conditional CDF arguments produced by iterated h-functions.

Structure selection follows the sequential procedure: at every level the
maximum spanning tree under |Kendall tau| weights (restricted to
proximity-feasible pairs) is chosen, each edge's pair copula is fitted by
maximum likelihood after an independence pre-test, and the h-transformed
pseudo-observations feed the next level.

The module also carries the d-dimensional one-parameter Archimedean
baseline (Frank, Joe, Clayton, Gumbel) used for model comparison, with
densities evaluated through closed-form derivatives of the inverse
generator.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .copulas import (
    DEFAULT_CANDIDATES,
    PairCopula,
    _bisect_increasing,
    _finite_loglik,
    _fit_pair_with_tau,
    _refit_near,
    _search_theta,
    _theta_ranges,
    check_theta,
    kendall_tau,
    pair_h,
    pair_h2,
    pair_h2_inverse,
    pair_h_inverse,
    pair_log_density,
    refit_theta,
)
from .errors import ArgumentError, FittingError, StructuralError
from .marginals import MixtureModel

COND_CLAMP = 1e-12  # conditional CDF values are clamped here before copula calls
ARCHIMEDEAN_FAMILIES = ("frank", "clayton", "gumbel", "joe")


def _cl(a):
    return np.asarray(a, dtype=float).clip(COND_CLAMP, 1.0 - COND_CLAMP)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VineEdge:
    """One edge of a tree level.

    nodes are indices of the joined nodes at this level: variables for
    level 1, positions in the previous level's edge list for level >= 2.
    """

    level: int
    nodes: tuple[int, int]
    conditioned: tuple[int, int]
    conditioning: frozenset[int]

    @property
    def constraint(self) -> frozenset[int]:
        return self.conditioning | set(self.conditioned)

    def key(self):
        return (self.conditioned, tuple(sorted(self.conditioning)))

    @classmethod
    def joining(cls, level: int, nodes: tuple[int, int], lam_a: frozenset[int],
                lam_b: frozenset[int]) -> "VineEdge":
        """The edge between nodes with constraint sets lam_a and lam_b: the
        conditioned set is their symmetric difference, the conditioning set
        their intersection."""
        return cls(level, nodes, tuple(sorted(lam_a ^ lam_b)), lam_a & lam_b)


@dataclass(frozen=True)
class RVineStructure:
    """Tree sequence with per-edge conditioned/conditioning sets."""

    d: int
    levels: tuple[tuple[VineEdge, ...], ...]

    @classmethod
    def from_tree_edges(cls, d: int, tree_edges) -> "RVineStructure":
        """Build from raw node-index pairs per level; each edge's sets
        follow `VineEdge.joining`."""
        levels: list[tuple[VineEdge, ...]] = []
        prev_lambda: list[frozenset[int]] = [frozenset({i}) for i in range(d)]
        for li, raw in enumerate(tree_edges, start=1):
            edges = []
            for na, nb in raw:
                if not (0 <= na < len(prev_lambda)) or not (0 <= nb < len(prev_lambda)):
                    raise StructuralError(
                        f"level {li}: node index out of range in edge ({na}, {nb})")
                edges.append(VineEdge.joining(li, (na, nb), prev_lambda[na], prev_lambda[nb]))
            levels.append(tuple(edges))
            prev_lambda = [e.constraint for e in edges]
        return cls(d, tuple(levels))

    @property
    def edges(self) -> list[VineEdge]:
        return [e for level in self.levels for e in level]


def dvine_structure(order) -> RVineStructure:
    """D-vine (path) structure along the given variable ordering."""
    order = list(order)
    d = len(order)
    if sorted(order) != list(range(d)):
        raise ArgumentError("order must be a permutation of 0..d-1")
    tree_edges = [[(order[i], order[i + 1]) for i in range(d - 1)]]
    for level in range(2, d):
        tree_edges.append([(i, i + 1) for i in range(d - level)])
    return RVineStructure.from_tree_edges(d, tree_edges)


def _find(parent: list[int], x: int) -> int:
    """Root of x in the union-find forest `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def validate_structure(structure: RVineStructure) -> str | None:
    """Check the regular-vine conditions; return the first violation or None.

    Each level must be a spanning tree over the edges of the level below,
    nodes joined at level >= 2 must share one node (proximity), and each
    edge's sets must follow from its nodes by `VineEdge.joining`.  Then
    every conditioned set is a pair, and every pair of variables is the
    conditioned set of exactly one edge (Bedford & Cooke 2001).
    """
    d = structure.d
    if len(structure.levels) != d - 1:
        return f"expected {d - 1} tree levels, found {len(structure.levels)}"

    prev_edges: tuple[VineEdge, ...] | None = None
    lambdas = [frozenset({i}) for i in range(d)]   # constraint sets of the nodes
    for li, level in enumerate(structure.levels, start=1):
        n_nodes = len(lambdas)
        if len(level) != n_nodes - 1:
            return (f"tree {li}: expected {n_nodes - 1} edges over {n_nodes} nodes, "
                    f"found {len(level)}")
        parent = list(range(n_nodes))
        for e in level:
            na, nb = e.nodes
            if not (0 <= na < n_nodes and 0 <= nb < n_nodes) or na == nb:
                return f"tree {li}: invalid edge nodes {e.nodes}"
            ra, rb = _find(parent, na), _find(parent, nb)
            # n - 1 edges that close no cycle span all n nodes
            if ra == rb:
                return f"tree {li}: edge {e.nodes} creates a cycle"
            parent[ra] = rb
            if li >= 2:
                a_ends = set(prev_edges[na].nodes)
                b_ends = set(prev_edges[nb].nodes)
                if len(a_ends & b_ends) != 1:
                    return (f"tree {li}: proximity violation, nodes {e.nodes} share "
                            f"{len(a_ends & b_ends)} previous-tree nodes")
            if e != VineEdge.joining(li, e.nodes, lambdas[na], lambdas[nb]):
                return f"tree {li}: the sets of {e.nodes} do not follow from its nodes"
        prev_edges = level
        lambdas = [e.constraint for e in level]
    return None


# ---------------------------------------------------------------------------
# fitted models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RVineModel:
    structure: RVineStructure
    pair_copulas: tuple[PairCopula, ...]      # aligned with structure.edges
    marginals: tuple[MixtureModel, ...]

    def __post_init__(self):
        n_edges = len(self.structure.edges)
        if len(self.pair_copulas) != n_edges:
            raise ArgumentError(f"expected {n_edges} pair copulas")
        if len(self.marginals) != self.structure.d:
            raise ArgumentError(f"expected {self.structure.d} marginals")

    @property
    def d(self) -> int:
        return self.structure.d

    @property
    def n_copula_params(self) -> int:
        return sum(c.n_params for c in self.pair_copulas)

    def edge_items(self):
        return list(zip(self.structure.edges, self.pair_copulas))

    def log_density(self, x):
        return vine_log_density(self, x)

    def copula_slice(self, head):
        return vine_copula_slice(self, head)

    def sample(self, n: int, seed) -> np.ndarray:
        return vine_sample(self, n, seed)


@dataclass(frozen=True)
class ArchimedeanModel:
    """Single-parameter d-dimensional Archimedean copula with marginals.

    theta lies in one of `arch_theta_ranges(family, d)`, the ranges a fit
    searches, as a `PairCopula`'s theta lies in its family's ranges.
    """

    family: str
    theta: float
    marginals: tuple[MixtureModel, ...]

    def __post_init__(self):
        if self.family not in ARCHIMEDEAN_FAMILIES:
            raise ArgumentError(f"unknown Archimedean family {self.family!r}")
        check_theta(self.family, self.theta, arch_theta_ranges(self.family, self.d))

    @property
    def d(self) -> int:
        return len(self.marginals)

    @property
    def n_copula_params(self) -> int:
        return 1

    def log_density(self, x):
        return vine_log_density(self, x)

    def copula_slice(self, head):
        """(const, log_g) of `head`, as in `vine_copula_slice`: const is the
        fixed marginals' log-density, log_g the copula log-density at
        (F(head), u)."""
        head = _check_head(self, head)
        last = self.d - 1
        with np.errstate(all="ignore"):
            head_u = [_cl(m.cdf(head[:, i])) for i, m in enumerate(self.marginals[:last])]
            const = sum(m.log_density(head[:, i])
                        for i, m in enumerate(self.marginals[:last]))

        def log_g(u, rows):
            with np.errstate(all="ignore"):
                u = np.column_stack(np.broadcast_arrays(*[c[rows] for c in head_u],
                                                        _cl(u)))
                return _arch_log_density(self.family, self.theta, u)

        return const, log_g

    def sample(self, n: int, seed) -> np.ndarray:
        u = _arch_sample_uniform(self.family, self.theta, self.d, n, seed)
        cols = [m.quantile(_cl(u[:, i])) for i, m in enumerate(self.marginals)]
        return np.column_stack(cols)


# ---------------------------------------------------------------------------
# sequential fitting (structure selection + pair-copula estimation)
# ---------------------------------------------------------------------------

def _copula_data(data, marginals, min_rows: int):
    """(u, marginals) for fitting either engine: the clamped pseudo-observations
    u_i = F_i(x_i) of the data's columns, after the row-count check
    (FittingError) and the one-marginal-per-column check (ArgumentError)."""
    x = np.atleast_2d(np.asarray(data, dtype=float))
    if len(x) < min_rows:
        raise FittingError(f"need at least {min_rows} rows to fit a copula, got {len(x)}")
    marginals = tuple(marginals)
    if len(marginals) != x.shape[1]:
        raise ArgumentError(f"expected {x.shape[1]} marginals, got {len(marginals)}")
    return np.column_stack([_cl(m.cdf(x[:, i])) for i, m in enumerate(marginals)]), marginals


def fit_sequential(data, marginals, candidates=DEFAULT_CANDIDATES,
                   min_rows: int = 30,
                   template: RVineModel | None = None) -> RVineModel:
    """Fit an R-vine to descriptor columns.

    Level 1 pseudo-observations come from the fitted parametric marginal
    CDFs.  Each tree is the maximum spanning tree of |tau| over
    proximity-feasible candidate edges (greedy, ties broken by the
    lexicographically smallest edge key), each edge copula is chosen by an
    independence pre-test followed by per-family maximum likelihood, and
    transformed observations feed the next level.  Kendall taus are
    computed once per level on the cached conditional pseudo-observations.

    When `template` is given, its structure and per-edge families are
    reused and only the copula parameters are re-estimated (fast refits,
    `copulas.refit_theta`).
    """
    u, marginals = _copula_data(data, marginals, min_rows)
    d = u.shape[1]
    cache = _ConditionalCache(u=u)
    if template is not None:
        return _refit_template(template, cache, marginals)

    # (constraint set, joined previous-level nodes) of each current node
    frames: list[tuple[frozenset[int], tuple[int, int] | None]] = [
        (frozenset({i}), None) for i in range(d)]
    levels: list[tuple[VineEdge, ...]] = []
    copulas: list[PairCopula] = []

    for level in range(1, d):
        cands = []
        for ia, ib in itertools.combinations(range(len(frames)), 2):
            (lam_a, ends_a), (lam_b, ends_b) = frames[ia], frames[ib]
            if level >= 2 and len(set(ends_a) & set(ends_b)) != 1:
                continue
            edge = VineEdge.joining(level, (ia, ib), lam_a, lam_b)
            uj, uk = (cache.value(var, edge.conditioning) for var in edge.conditioned)
            cands.append((edge, uj, uk, kendall_tau(uj, uk)))

        cands.sort(key=lambda c: (-abs(c[3]), c[0].key()))
        parent = list(range(len(frames)))
        chosen = []
        for c in cands:
            ra, rb = _find(parent, c[0].nodes[0]), _find(parent, c[0].nodes[1])
            if ra == rb:
                continue
            parent[ra] = rb
            chosen.append(c)
            if len(chosen) == len(frames) - 1:
                break
        if len(chosen) != len(frames) - 1:
            raise StructuralError(f"level {level}: feasible edge set is disconnected")
        chosen.sort(key=lambda c: c[0].key())

        for edge, uj, uk, tau in chosen:
            cop = _fit_pair_with_tau(uj, uk, tau, candidates)
            copulas.append(cop)
            cache.add_edge(edge, cop)
        levels.append(tuple(edge for edge, *_ in chosen))
        frames = [(edge.constraint, edge.nodes) for edge in levels[-1]]

    return RVineModel(RVineStructure(d, tuple(levels)), tuple(copulas), marginals)


def _refit_template(template: RVineModel, cache: _ConditionalCache,
                    marginals) -> RVineModel:
    """Keep structure + families, re-estimate copula parameters only."""
    new_cops = []
    for edge, cop in template.edge_items():
        new = refit_theta(cop, *(cache.value(var, edge.conditioning)
                                 for var in edge.conditioned))
        new_cops.append(new)
        cache.add_edge(edge, new)
    return RVineModel(template.structure, tuple(new_cops), tuple(marginals))


# ---------------------------------------------------------------------------
# density evaluation
# ---------------------------------------------------------------------------

class _ConditionalCache:
    """Memoized conditional CDF values F(var | S): the vine's h-function
    recursion, shared by fitting, density evaluation and sampling.

    Base columns F(var | {}) come from `add_column`.  An edge registered
    with `add_edge` supplies F(var | S) for either var of its conditioned
    pair when S together with var is the edge's constraint set, through the
    h-function of its copula applied to its own (recursively obtained)
    inputs.  Values are computed on first use.
    """

    def __init__(self, model: RVineModel | None = None, u: np.ndarray | None = None):
        self.memo: dict[tuple[int, frozenset[int]], np.ndarray] = {}
        self.by_constraint: dict[tuple[int, frozenset[int]],
                                 tuple[VineEdge, PairCopula]] = {}
        self.base: _ConditionalCache | None = None
        self.free: int | None = None
        self.rows: np.ndarray | None = None
        for i in range(0 if u is None else u.shape[1]):
            self.add_column(i, u[:, i])
        for edge, cop in (() if model is None else model.edge_items()):
            self.add_edge(edge, cop)

    def add_column(self, var: int, column: np.ndarray) -> None:
        self.memo[(var, frozenset())] = column

    def add_edge(self, edge: VineEdge, cop: PairCopula) -> None:
        lam = edge.constraint
        for var in edge.conditioned:
            self.by_constraint[(var, lam)] = (edge, cop)

    def with_column(self, var: int, column: np.ndarray,
                    rows: np.ndarray) -> "_ConditionalCache":
        """A cache that adds the column of `var`, which this one lacks;
        `column[i]` pairs with row `rows[i]` of this cache.

        Values that involve `var` are memoized in the new cache.  All others
        are looked up in this one at `rows`, so they are computed once
        however many columns are passed here.
        """
        out = copy.copy(self)
        out.memo = {}
        out.add_column(var, column)
        out.base, out.free, out.rows = self, var, rows
        return out

    def value(self, var: int, cond: frozenset[int]) -> np.ndarray:
        key = (var, cond)
        if key in self.memo:
            return self.memo[key]
        if self.base is not None and var != self.free and self.free not in cond:
            out = self.memo[key] = self.base.value(var, cond)[self.rows]
            return out
        hit = self.by_constraint.get((var, cond | {var}))
        if hit is None:
            raise StructuralError(
                f"conditional F_[{var} | {sorted(cond)}] is not reachable in this vine"
                if cond else f"variable {var} has no column yet")
        edge, cop = hit
        j, k = edge.conditioned
        uj = self.value(j, edge.conditioning)
        uk = self.value(k, edge.conditioning)
        if var == j:
            out = _cl(pair_h(cop, uj, uk))
        else:
            out = _cl(pair_h2(cop, uk, uj))
        self.memo[key] = out
        return out


def _add_terms(total, pairs, cache: _ConditionalCache):
    """total plus the log-density of each (edge, copula) in `pairs`, in
    order, at the conditional CDFs of `cache`."""
    for edge, cop in pairs:
        j, k = edge.conditioned
        total = total + pair_log_density(cop, cache.value(j, edge.conditioning),
                                         cache.value(k, edge.conditioning))
    return total


def _dependent_pairs(model: RVineModel):
    return [(edge, cop) for edge, cop in model.edge_items()
            if cop.family != "independence"]


def vine_log_density(model: RVineModel | ArchimedeanModel, x) -> np.ndarray | float:
    """log f(x) of either engine at one point (a float) or the rows of an
    (n, d) matrix, -inf outside support.

    The pair-copula construction on all rows at once: the marginal
    log-densities summed in column order, then the Archimedean copula
    log-density, or each non-independence pair log-density in edge order
    at the h-function conditionals of one `_ConditionalCache`.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != model.d:
        raise ArgumentError(f"expected {model.d}-dimensional points")
    margs = model.marginals
    with np.errstate(all="ignore"):
        u = np.column_stack([_cl(m.cdf(arr[:, i])) for i, m in enumerate(margs)])
        total = sum(m.log_density(arr[:, i]) for i, m in enumerate(margs))
        if isinstance(model, ArchimedeanModel):
            total = _arch_log_density(model.family, model.theta, u) + total
        else:
            total = _add_terms(total, _dependent_pairs(model), _ConditionalCache(model, u))
    return float(total[0]) if scalar else total


def _check_head(model, head) -> np.ndarray:
    """`head` as an (n, d - 1) matrix of the first d - 1 coordinates."""
    head = np.atleast_2d(np.asarray(head, dtype=float))
    if head.shape[1] != model.d - 1:
        raise ArgumentError(f"expected {model.d - 1} fixed coordinates")
    return head


def vine_copula_slice(model: RVineModel, head):
    """The slice along the last variable in its copula coordinate
    u = F_last(s): (const, log_g) with

        log f(head, s) = const + log f_last(s) + log_g(F_last(s), rows)

    (Sklar's factorization).  `head` is one point or n rows of the first
    d - 1 coordinates.  const, one value per row of `head`, is the fixed
    marginals' log-density plus every pair term whose constraint set
    excludes the last variable, evaluated once; log_g(u, rows) sums the
    other pair terms, where `rows` indexes the rows of `head` that the
    values of u pair with.  The terms are those of `vine_log_density`,
    added in another order, so the two agree to rounding.
    """
    head = _check_head(model, head)
    last = model.d - 1
    margs = model.marginals[:last]
    fixed = _ConditionalCache(model)
    for i, m in enumerate(margs):
        fixed.add_column(i, _cl(m.cdf(head[:, i])))
    with np.errstate(divide="ignore"):
        const = sum(m.log_density(head[:, i]) for i, m in enumerate(margs))
    pairs = _dependent_pairs(model)
    const = _add_terms(const, [p for p in pairs if last not in p[0].constraint], fixed)
    free = [p for p in pairs if last in p[0].constraint]

    def log_g(u, rows):
        cache = fixed.with_column(last, _cl(u), rows)
        return _add_terms(np.zeros(np.shape(u)), free, cache)

    return const, log_g


# ---------------------------------------------------------------------------
# sampling (inverse Rosenblatt through the constraint-set index)
# ---------------------------------------------------------------------------

def vine_sample(model: RVineModel, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows from the vine by inverse Rosenblatt; deterministic
    for a given seed.  A structure that is not a regular vine raises
    StructuralError.

    Order: from all variables U, the edge with constraint set U conditions
    (a, b) on U - {a, b}; remove a = `conditioned[0]` and repeat on U - {a}
    down to one variable, which keeps its uniform.  The removed variables
    are drawn in reverse.  For v removed from S + {v}, the edge with that
    constraint set has F(v | S) = h(F(v | D) | F(q | D)), q the partner and
    D the conditioning set: invert h, set S = D and repeat until S is empty.

    Every lookup succeeds on a regular vine.  The top edge over U joins the
    nodes with constraint sets U - {b} and U - {a}, so U - {a} is the top
    of the sub-vine left.  At every level the node that holds v joins a node
    without v, so v is conditioned at every level down to tree 1, whichever
    of a and b is v.  Each F(q | D) involves drawn variables only.
    """
    if n < 1:
        raise ArgumentError("sample size must be >= 1")
    problem = validate_structure(model.structure)
    if problem is not None:
        raise StructuralError(f"cannot sample an irregular vine: {problem}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(COND_CLAMP, 1.0 - COND_CLAMP, size=(n, model.d))

    top = {edge.constraint: edge for edge in model.structure.edges}
    rest = frozenset(range(model.d))
    removed = []    # (variable, the set it is drawn given)
    while len(rest) > 1:
        var = top[rest].conditioned[0]
        rest = rest - {var}
        removed.append((var, rest))

    cache = _ConditionalCache(model)
    (first,) = rest
    cache.add_column(first, w[:, first])
    for var, given in reversed(removed):
        t = w[:, var]
        while given:
            edge, cop = cache.by_constraint[(var, given | {var})]
            j, k = edge.conditioned
            if var == j:
                t = pair_h_inverse(cop, _cl(t), cache.value(k, edge.conditioning))
            else:
                t = pair_h2_inverse(cop, _cl(t), cache.value(j, edge.conditioning))
            given = edge.conditioning
        cache.add_column(var, t)

    cols = [model.marginals[i].quantile(_cl(cache.value(i, frozenset())))
            for i in range(model.d)]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# d-dimensional Archimedean baseline
# ---------------------------------------------------------------------------

def _arch_phi(family: str, theta: float, u: np.ndarray) -> np.ndarray:
    """Generator phi(u) with phi(1) = 0, decreasing on (0, 1]."""
    if family == "clayton":
        with np.errstate(over="ignore"):
            return np.expm1(-theta * np.log(u))          # u^-theta - 1
    if family == "gumbel":
        return np.exp(theta * np.log(-np.log(u)))        # (-ln u)^theta
    if family == "frank":
        num = np.expm1(-theta * u)
        den = np.expm1(-theta)
        return -np.log(num / den)
    if family == "joe":
        w = np.exp(theta * np.log1p(-u))                 # (1-u)^theta
        return -np.log1p(-w)
    raise ArgumentError(family)


def _arch_log_neg_phi_prime(family: str, theta: float, u: np.ndarray) -> np.ndarray:
    if family == "clayton":
        return np.log(theta) - (theta + 1.0) * np.log(u)
    if family == "gumbel":
        return np.log(theta) + (theta - 1.0) * np.log(-np.log(u)) - np.log(u)
    if family == "frank":
        # theta e^(-theta u) / (1 - e^(-theta u)), positive for theta > 0
        return (np.log(abs(theta)) - theta * u
                - np.log(np.abs(-np.expm1(-theta * u))))
    if family == "joe":
        w = np.exp(theta * np.log1p(-u))
        return (np.log(theta) + (theta - 1.0) * np.log1p(-u) - np.log1p(-w))
    raise ArgumentError(family)


def _gumbel_poly(order: int, alpha: float) -> np.ndarray:
    """Coefficients of P_m(x) = (-1)^m Q_m(x), Q_1 = -alpha x,
    Q_{m+1} = alpha x (Q_m' - Q_m) - m Q_m."""
    q = np.zeros(order + 1)
    q[1] = -alpha
    for m in range(1, order):
        nq = np.zeros(order + 1)
        for k in range(0, m + 1):
            c = q[k]
            if c == 0.0:
                continue
            nq[k] += alpha * k * c       # alpha x Q'
            nq[k + 1] -= alpha * c       # -alpha x Q
            nq[k] -= m * c               # -m Q
        q = nq
    return q * (-1.0) ** order


@functools.cache
def _eulerian_poly(order: int) -> np.ndarray:
    """Numerator coefficients N_m of Li_{-m}(g) = N_m(g) / (1-g)^(m+1),
    built once per order and returned read-only."""
    n = np.zeros(order + 2)
    n[1] = 1.0                            # Li_0 = g / (1 - g)
    for m in range(order):
        # Li_{-(m+1)} = g d/dg [N / (1-g)^(m+1)]
        #            = g [N' (1-g) + (m+1) N] / (1-g)^(m+2)
        deriv = np.polynomial.polynomial.polyder(n)
        term = np.polynomial.polynomial.polysub(
            deriv, np.polynomial.polynomial.polymulx(deriv))
        term = np.polynomial.polynomial.polyadd(term, (m + 1) * n)
        n = np.polynomial.polynomial.polymulx(term)
        n = np.pad(n, (0, max(0, order + 2 - n.size)))[: order + 2]
    n.flags.writeable = False
    return n


def _joe_coeffs(order: int, alpha: float) -> np.ndarray:
    """c_{m,j} with psi^(m)(t) = sum_j c_{m,j} y^j (1-y)^(alpha-j), y = e^-t."""
    c = np.zeros(order + 1)
    c[1] = -alpha
    for m in range(1, order):
        nc = np.zeros(order + 1)
        for j in range(1, m + 1):
            if c[j] == 0.0:
                continue
            nc[j] += -j * c[j]
            nc[j + 1] += (alpha - j) * c[j]
        c = nc
    return c


def _arch_log_psi_m(family: str, theta: float, m: int, t: np.ndarray) -> np.ndarray:
    """log of (-1)^m psi^(m)(t) for the inverse generator psi."""
    t = np.asarray(t, dtype=float)
    if family == "clayton":
        const = np.sum(np.log(1.0 / theta + np.arange(m)))
        return const - (1.0 / theta + m) * np.log1p(t)
    if family == "gumbel":
        alpha = 1.0 / theta
        with np.errstate(divide="ignore"):
            log_t = np.log(t)
        if m == 0:
            return -np.exp(alpha * log_t)
        coeffs = _gumbel_poly(m, alpha)
        terms = [np.log(c) + k * alpha * log_t
                 for k, c in enumerate(coeffs) if c > 0.0]
        log_p = terms[0] if len(terms) == 1 else np.logaddexp.reduce(np.stack(terms))
        return -np.exp(alpha * log_t) - m * log_t + log_p
    if family == "frank":
        # (-1)^m psi^(m) = (1/theta) Li_{1-m}(g) with g = (1 - e^-theta) e^-t,
        # and Li_{1-m}(g) = N_{m-1}(g) / (1 - g)^m for m >= 1
        g = -np.expm1(-theta) * np.exp(-t)
        g = np.minimum(g, 1.0 - 1e-16)
        if m == 0:
            return np.log(-np.log1p(-g) / theta)
        coeffs = _eulerian_poly(m - 1)
        if theta < 0.0:
            # g < 0, so the terms of N(g) alternate in sign: sum them
            # directly; N(g) / theta > 0 wherever the copula has a density
            log_num = np.log(np.polynomial.polynomial.polyval(g, coeffs) / theta)
            return log_num - m * np.log1p(-g)
        with np.errstate(divide="ignore"):
            log_g = np.log(g)
        terms = [np.log(c) + k * log_g for k, c in enumerate(coeffs) if c > 0.0]
        log_num = terms[0] if len(terms) == 1 else np.logaddexp.reduce(np.stack(terms))
        return log_num - m * np.log1p(-g) - np.log(theta)
    if family == "joe":
        alpha = 1.0 / theta
        log_y = -t
        log_1my = np.log(-np.expm1(-t))
        if m == 0:
            return np.log(-np.expm1(alpha * log_1my))
        coeffs = _joe_coeffs(m, alpha)
        sign = (-1.0) ** m
        terms = [np.log(sign * c) + j * log_y + (alpha - j) * log_1my
                 for j, c in enumerate(coeffs) if sign * c > 0.0]
        return terms[0] if len(terms) == 1 else np.logaddexp.reduce(np.stack(terms))
    raise ArgumentError(family)


def _arch_log_density(family: str, theta: float, u: np.ndarray) -> np.ndarray:
    """log c(u_1..u_d) for the d-dimensional Archimedean copula."""
    d = u.shape[1]
    t = np.sum(_arch_phi(family, theta, u), axis=1)
    out = _arch_log_psi_m(family, theta, d, t)
    out = out + np.sum(_arch_log_neg_phi_prime(family, theta, u), axis=1)
    return out


def _arch_sample_uniform(family: str, theta: float, d: int, n: int, seed) -> np.ndarray:
    """Conditional-inversion sampling of the Archimedean copula itself."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(COND_CLAMP, 1.0 - COND_CLAMP, size=(n, d))
    u = np.empty((n, d))
    u[:, 0] = w[:, 0]
    t_prev = _arch_phi(family, theta, u[:, 0])
    for m in range(1, d):
        # F(u_{m+1} | u_1..u_m) = psi^(m)(t_prev + phi(u)) / psi^(m)(t_prev)
        log_den = _arch_log_psi_m(family, theta, m, t_prev)
        u[:, m] = _bisect_increasing(
            lambda x: np.exp(_arch_log_psi_m(family, theta, m,
                                             t_prev + _arch_phi(family, theta, x))
                             - log_den),
            w[:, m], COND_CLAMP, 1.0 - COND_CLAMP, 80)
        t_prev = t_prev + _arch_phi(family, theta, u[:, m])
    return u


def _arch_loglik(family: str, u: np.ndarray, theta) -> float:
    with np.errstate(all="ignore"):
        return _finite_loglik(_arch_log_density(family, float(theta), u))


def arch_theta_ranges(family: str, d: int) -> list[tuple[float, float]]:
    """The theta ranges of a d-dimensional Archimedean family: Frank's
    negative half only for d = 2."""
    return _theta_ranges(family, 0 if d == 2 else 1)


def fit_archimedean(data, marginals, candidates=ARCHIMEDEAN_FAMILIES,
                    min_rows: int = 30,
                    template: ArchimedeanModel | None = None) -> ArchimedeanModel:
    """Fit the best single-theta d-dimensional Archimedean copula by ML.

    Every family gets its theta from the search `fit_pair` uses
    (`copulas._search_theta`), unseeded, on its `THETA_RANGE`.  Negative
    Frank parameters are admissible only in the bivariate case: for d = 2
    both Frank halves are searched, for d >= 3 only the positive one.  A
    later family wins only with a strictly larger log-likelihood, so ties
    go to the candidate order.

    When `template` is given, its family is kept and only theta is
    re-estimated, by the template refit of the R-vine edges
    (`copulas._refit_near`): a warm bracket around the template theta, on
    the range of its sign.
    """
    u, marginals = _copula_data(data, marginals, min_rows)
    if template is not None:
        theta = _refit_near(functools.partial(_arch_loglik, template.family, u),
                            template.family, float(template.theta))
        return ArchimedeanModel(template.family, theta, marginals)

    best = None
    for family in candidates:
        found = _search_theta(functools.partial(_arch_loglik, family, u),
                              arch_theta_ranges(family, u.shape[1]))
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], family, found[1])
    if best is None:
        raise FittingError("all Archimedean candidate fits failed numerically")
    return ArchimedeanModel(best[1], best[2], marginals)
