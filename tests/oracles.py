"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain dicts and sets, explicit
enumeration over every target ordering, and textbook quadrature.  Nothing is
imported from :mod:`growthfit`, so agreement between these oracles and the
package is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
import math

from scipy import integrate

# ---------------------------------------------------------------------------
# attachment-probability oracle
# ---------------------------------------------------------------------------


def _adjacency(num_nodes, edges):
    neigh = {v: set() for v in range(num_nodes)}
    for u, v in edges:
        neigh[u].add(v)
        neigh[v].add(u)
    return neigh


def _weight(spec, node, neigh, anchor):
    """Unnormalized weight of ``node`` under one component spec.

    ``spec`` is a tuple: ("rand",), ("dp", alpha), ("rp", alpha) or
    ("tri",).  Triangle closure scores a candidate by how many common
    neighbours it shares with the anchor node.
    """
    kind = spec[0]
    if kind == "rand":
        return 1.0
    if kind == "dp":
        alpha = spec[1]
        k = len(neigh[node])
        if k == 0:
            return 1.0 if alpha == 0.0 else 0.0
        return float(k) ** alpha
    if kind == "rp":
        return float(node + 1) ** (-spec[1])
    if kind == "tri":
        return float(len(neigh[anchor] & neigh[node]))
    raise ValueError(f"unknown spec {spec!r}")


def _mixture_prob(mixture, chosen, eligible, neigh, anchor):
    """Probability of picking ``chosen`` from ``eligible`` under a mixture.

    Each (weight, spec) component is normalized separately; a component whose
    total weight over the eligible set vanishes falls back to the uniform
    distribution, mirroring the package's convention.
    """
    prob = 0.0
    for beta, spec in mixture:
        total = sum(_weight(spec, x, neigh, anchor) for x in eligible)
        if total == 0.0:
            prob += beta / len(eligible)
        else:
            prob += beta * _weight(spec, chosen, neigh, anchor) / total
    return prob


def oracle_choice_probabilities(
    num_nodes, edges, center, center_is_new, targets, specs, orders=None
):
    """Per-component probability of every choice a star makes.

    ``num_nodes``/``edges`` describe the graph *before* the star is applied.
    ``targets`` is a list of (node, is_new) pairs; new nodes never appear in
    any eligible set and make no choice.  Existing targets are drawn without
    replacement in the given ``orders`` (default: every ordering of them).
    When the star's center is an existing node, the center and its
    neighbourhood are excluded from every target choice.

    Returns (center_row, order_rows): ``center_row`` holds one probability
    per spec for choosing the center (None for a new center), and
    ``order_rows`` holds, per ordering, one such row per step.

    For triangle closure the center itself is drawn uniformly; target choices
    are anchored on the center when it already exists, otherwise on whichever
    existing target happened to be chosen first.
    """
    neigh = _adjacency(num_nodes, edges)
    all_nodes = set(range(num_nodes))

    if center_is_new:
        center_row = None
        base_excluded = set()
    else:
        # triangle closure picks the center uniformly
        center_specs = [("rand",) if spec[0] == "tri" else spec for spec in specs]
        center_row = [
            _mixture_prob([(1.0, spec)], center, all_nodes, neigh, None) for spec in center_specs
        ]
        base_excluded = {center} | neigh[center]

    existing = [node for node, is_new in targets if not is_new]
    if orders is None:
        orders = list(itertools.permutations(existing))
    order_rows = []
    for order in orders:
        rows = []
        chosen: set[int] = set()
        for step, node in enumerate(order):
            eligible = all_nodes - chosen - base_excluded
            anchor = center if not center_is_new else order[0]
            row = []
            for spec in specs:
                if spec[0] == "tri" and center_is_new and step == 0:
                    # first choice of an external star: triangle closure has
                    # no anchor yet, so it degrades to uniform
                    row.append(1.0 / len(eligible))
                else:
                    row.append(_mixture_prob([(1.0, spec)], node, eligible, neigh, anchor))
            rows.append(row)
            chosen.add(node)
        order_rows.append(rows)
    return center_row, order_rows


def oracle_increment_probability(
    num_nodes, edges, center, center_is_new, targets, mixture, orders=None, log_mult=0.0
):
    """Probability that a star lands exactly on ``targets`` under a mixture.

    The data reveal only the *set* of existing targets, and distinct arrival
    orders are mutually exclusive ways to produce it, so the probability sums
    the product of per-step mixture probabilities over every order.  Given
    ``orders`` (a sample of orders), the sum runs over those instead and is
    scaled by ``exp(log_mult)``.
    """
    betas = [beta for beta, _ in mixture]
    center_row, order_rows = oracle_choice_probabilities(
        num_nodes, edges, center, center_is_new, targets, [spec for _, spec in mixture], orders
    )
    center_prob = 1.0 if center_row is None else sum(b * p for b, p in zip(betas, center_row))
    total = 0.0
    for rows in order_rows:
        p = 1.0
        for row in rows:
            p *= sum(b * x for b, x in zip(betas, row))
        total += p
    return center_prob * math.exp(log_mult) * total


# ---------------------------------------------------------------------------
# chi-square tail oracle
# ---------------------------------------------------------------------------


def oracle_chi2_sf(stat, df):
    """Upper-tail chi-square probability by direct quadrature of the pdf."""
    if stat <= 0.0:
        return 1.0
    log_norm = -(df / 2.0) * math.log(2.0) - math.lgamma(df / 2.0)

    def pdf(t):
        return math.exp(log_norm + (df / 2.0 - 1.0) * math.log(t) - t / 2.0)

    value, _err = integrate.quad(pdf, stat, math.inf, limit=200)
    return value


# ---------------------------------------------------------------------------
# simple graph-statistics oracles
# ---------------------------------------------------------------------------


def oracle_triangle_count(num_nodes, edges):
    """Total triangles by brute force over all node triples."""
    neigh = _adjacency(num_nodes, edges)
    count = 0
    for a, b, c in itertools.combinations(range(num_nodes), 3):
        if b in neigh[a] and c in neigh[a] and c in neigh[b]:
            count += 1
    return count


def oracle_clustering(num_nodes, edges):
    """Average local clustering; degree < 2 nodes contribute zero."""
    neigh = _adjacency(num_nodes, edges)
    total = 0.0
    for v in range(num_nodes):
        k = len(neigh[v])
        if k < 2:
            continue
        closed = sum(
            1
            for a, b in itertools.combinations(sorted(neigh[v]), 2)
            if b in neigh[a]
        )
        total += 2.0 * closed / (k * (k - 1))
    return total / num_nodes if num_nodes else 0.0


def oracle_assortativity(num_nodes, edges):
    """Degree assortativity as a plain Pearson correlation over edge ends.

    Every undirected edge contributes both (k_u, k_v) and (k_v, k_u).
    Returns None when either coordinate has zero variance.
    """
    neigh = _adjacency(num_nodes, edges)
    xs, ys = [], []
    for u, v in edges:
        xs.extend((len(neigh[u]), len(neigh[v])))
        ys.extend((len(neigh[v]), len(neigh[u])))
    n = len(xs)
    if n == 0:
        return None
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)
