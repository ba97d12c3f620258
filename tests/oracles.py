"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain dicts and sets, explicit
enumeration over every target ordering, and textbook quadrature.  Nothing is
imported from :mod:`growthfit`, so agreement between these oracles and the
package is meaningful evidence rather than a tautology.  The one reference
that reuses package kernels, ``chunked_cache_loglik``, is handed them as an
argument and checks only the order in which they are combined.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
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


def _mixture_prob(mixture, chosen, eligible, neigh, anchor, totals=None):
    """Probability of picking ``chosen`` from ``eligible`` under a mixture.

    Each (weight, spec) component is normalized separately; a component whose
    total weight over the eligible set vanishes falls back to the uniform
    distribution, mirroring the package's convention.  ``totals``, a dict
    for one graph, keeps each total by (spec, eligible set, anchor), so the
    orderings of a star sum each set once.
    """
    totals = {} if totals is None else totals
    prob = 0.0
    for beta, spec in mixture:
        key = (spec, frozenset(eligible), anchor)
        if key not in totals:
            totals[key] = sum(_weight(spec, x, neigh, anchor) for x in eligible)
        total = totals[key]
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
    totals = {}
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
                    row.append(
                        _mixture_prob([(1.0, spec)], node, eligible, neigh, anchor, totals)
                    )
            rows.append(row)
            chosen.add(node)
        order_rows.append(rows)
    return center_row, order_rows


def oracle_fallbacks(num_nodes, edges, center, center_is_new, specs, order):
    """Per spec, how many of a star's choices fall back to uniform.

    The choices are the center, when it already exists, and the existing
    targets taken in ``order``.  A choice falls back when the spec weighs
    its whole eligible set 0, and the first target of a new-center star
    always does under triangle closure, which has no anchor yet.  The
    center is drawn uniformly under triangle closure, which is no fallback.
    """
    neigh = _adjacency(num_nodes, edges)
    all_nodes = set(range(num_nodes))
    counts = [0] * len(specs)
    excluded = set()
    if not center_is_new:
        for l, spec in enumerate(specs):
            if spec[0] != "tri" and sum(_weight(spec, x, neigh, None) for x in all_nodes) == 0.0:
                counts[l] += 1
        excluded = {center} | neigh[center]
    chosen = set()
    for step, node in enumerate(order):
        eligible = all_nodes - chosen - excluded
        anchor = center if not center_is_new else order[0]
        for l, spec in enumerate(specs):
            if spec[0] == "tri" and center_is_new and step == 0:
                counts[l] += 1
            elif sum(_weight(spec, x, neigh, anchor) for x in eligible) == 0.0:
                counts[l] += 1
        chosen.add(node)
    return counts


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
# replay oracle: the DPTrace fields by walking the graph increment by increment
# ---------------------------------------------------------------------------


class OracleRejection(Exception):
    """An increment the replay oracle refuses: the package's error class name and message."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind
        self.message = message


def _log_factorial(q):
    if q < 2:
        return 0.0
    if q <= 170:
        return math.log(float(math.factorial(q)))
    return math.lgamma(q + 1.0)


def _check_increment(neigh, inc):
    """Raise what ``events.first_rejection`` reports for ``inc``; return the node count after it.

    The reference for ``graph.apply_increment`` and the replay: the center
    is checked first, then each target in list order, against ``neigh``.
    """
    n = len(neigh)
    next_id = n
    if inc.center_is_new:
        if inc.center != next_id:
            raise OracleRejection(
                "UnknownNodeError",
                f"new center id {inc.center} does not match next arrival index {next_id}",
            )
        next_id += 1
    elif not 0 <= inc.center < n:
        raise OracleRejection(
            "UnknownNodeError", f"existing-tagged center {inc.center} not in graph of {n} nodes"
        )
    for t, new in zip(inc.targets, inc.targets_new):
        if new:
            if t != next_id:
                raise OracleRejection(
                    "UnknownNodeError",
                    f"new target id {t} does not match next arrival index {next_id}",
                )
            next_id += 1
        else:
            if not 0 <= t < n:
                raise OracleRejection(
                    "UnknownNodeError", f"existing-tagged target {t} not in graph of {n} nodes"
                )
            if not inc.center_is_new and t in neigh[inc.center]:
                raise OracleRejection(
                    "RejectedIncrementError",
                    f"edge ({inc.center}, {t}) already present at t={inc.timestamp}",
                )
    return next_id


def _offsets(sizes):
    return np.concatenate(([0], np.cumsum(sizes)))


def oracle_trace(
    num_nodes,
    seed_edges,
    increments,
    first_index=0,
    seed=0,
    max_exhaustive_choices=5,
    ordering_samples=120,
):
    """Every DPTrace field of ``increments`` applied in turn to a seed graph, as a dict.

    The graph is walked one increment at a time: each increment is checked,
    read and then applied.  Neighbourhoods list their nodes in insertion
    order, the seed's by id, so an existing center's excluded neighbourhood
    comes out in the order its edges arrived.  Only sampled increments have
    orderings, drawn one ``permutation`` call at a time and kept in one
    (stars, S, q) block per q, of the smallest unsigned type that holds
    q - 1; ``chosen_deg`` lists the degree of every step's target, star by
    star.  Each increment lists its anchors for triangle closure: the
    existing center, or else every existing target in turn.  An increment
    the graph cannot take raises ``OracleRejection`` with the package's
    error class and message.
    """
    seed_sets = _adjacency(num_nodes, seed_edges)
    neigh = [dict.fromkeys(sorted(seed_sets[v])) for v in range(num_nodes)]
    degs = [len(nbrs) for nbrs in neigh]
    h0 = np.bincount(np.asarray(degs, dtype=np.int64), minlength=1)
    rows = []
    shared_id, shared_deg, target_id, target_deg, chosen_deg = [], [], [], [], []
    orderings, anchor_counts, anchor_total, anchor_common = [], [], [], []

    def common(u, v):
        return len(set(neigh[u]) & set(neigh[v]))

    for k, inc in enumerate(increments):
        index = first_index + k
        n = len(neigh)
        existing = tuple(t for t, new in zip(inc.targets, inc.targets_new) if not new)
        q = len(existing)
        after = _check_increment(neigh, inc)
        if inc.center_is_new:
            kc, eligible = 0, n
        else:
            kc = degs[inc.center]
            eligible = n - 1 - kc
            shared_id.append(inc.center)
            shared_id.extend(neigh[inc.center])
            shared_deg.append(kc)
            shared_deg.extend(degs[v] for v in neigh[inc.center])
        if q > eligible:
            raise OracleRejection(
                "RejectedIncrementError",
                f"increment {index}: {q} existing targets but only {eligible} eligible candidates",
            )
        num_choices = q + (0 if inc.center_is_new else 1)
        sampled = q > 0 and num_choices > max_exhaustive_choices
        positions = np.zeros((0, q), dtype=np.intp)
        log_mult = 0.0
        if sampled:
            rng = np.random.default_rng([seed, index])
            positions = np.array(
                [rng.permutation(q) for _ in range(ordering_samples)], dtype=np.intp
            ).reshape(ordering_samples, q)
            log_mult = _log_factorial(q) - math.log(float(ordering_samples))
        orderings.append(positions)
        chosen_deg.extend(degs[existing[p]] for row in positions.tolist() for p in row)
        target_id.extend(existing)
        target_deg.extend(degs[x] for x in existing)
        anchor_rows, totals = [], []
        if existing and not inc.center_is_new:
            c = inc.center
            wedges = sum(common(c, v) for v in neigh[c])
            anchor_rows.append([common(c, x) for x in existing])
            totals.append(sum(degs[u] for u in neigh[c]) - degs[c] - wedges)
        elif existing:
            for a, x in enumerate(existing):
                anchor_rows.append(
                    [0 if b == a else common(x, y) for b, y in enumerate(existing)]
                )
                totals.append(sum(degs[u] for u in neigh[x]) - degs[x])
        anchor_counts.append(len(totals))
        anchor_total.extend(totals)
        anchor_common.extend(itertools.chain.from_iterable(anchor_rows))

        center_rand = 0.0 if inc.center_is_new else -math.log(float(n))
        rand_steps = math.fsum(-math.log(float(eligible - s)) for s in range(q))
        rows.append(
            (
                inc.timestamp,
                num_choices,
                n,
                inc.center,
                inc.center_is_new,
                kc,
                len(inc.targets),
                eligible,
                sampled,
                log_mult,
                center_rand + (rand_steps + _log_factorial(q)),
                0 if inc.center_is_new else kc + 1,
            )
        )
        for _ in range(after - n):
            neigh.append({})
            degs.append(0)
        for t in inc.targets:
            neigh[inc.center][t] = None
            neigh[t][inc.center] = None
            degs[inc.center] += 1
            degs[t] += 1

    names = (
        ("timestamps", np.int64),
        ("num_choices", np.int64),
        ("num_nodes", np.int64),
        ("center", np.int64),
        ("center_new", bool),
        ("center_deg", np.int64),
        ("gain", np.int64),
        ("initial", np.int64),
        ("sampled", bool),
        ("log_mult", np.float64),
        ("logp_rand", np.float64),
        ("shared_count", np.int64),
    )
    columns = zip(*rows) if rows else [()] * len(names)
    out = {name: np.array(values, dtype=dtype) for (name, dtype), values in zip(names, columns)}
    shared_count = out.pop("shared_count")
    num_inc = len(increments)
    existing_counts = np.array([p.shape[1] for p in orderings], dtype=np.int64)
    ord_counts = np.array([p.shape[0] for p in orderings], dtype=np.int64)
    # One (stars, S, q) block per q of the sampled stars, in increment order.
    by_q = {}
    for p in orderings:
        if len(p):
            by_q.setdefault(p.shape[1], []).append(p)
    blocks = tuple(
        np.array(by_q[q], dtype=np.uint8 if q <= 256 else np.uint16) for q in sorted(by_q)
    )

    kmax = max(
        len(h0) - 1,
        1,
        int((out["center_deg"] + out["gain"]).max(initial=0)),
        max(target_deg, default=-1) + 1,
    )
    out.update(
        existing_counts=existing_counts,
        h0=np.pad(h0, (0, kmax + 1 - len(h0))).astype(np.float64),
        shared_inc=np.repeat(np.arange(num_inc), shared_count),
        shared_id=np.array(shared_id, dtype=np.int64),
        shared_deg=np.array(shared_deg, dtype=np.int64),
        target_inc=np.repeat(np.arange(num_inc), existing_counts),
        target_deg=np.array(target_deg, dtype=np.int64),
        target_id=np.array(target_id, dtype=np.int64),
        inc_ord_offsets=_offsets(ord_counts),
        orderings=blocks,
        anchor_offsets=_offsets(np.array(anchor_counts, dtype=np.int64)),
        anchor_total=np.array(anchor_total, dtype=np.int64),
        anchor_common=np.array(anchor_common, dtype=np.int64),
        chosen_deg=np.array(chosen_deg, dtype=np.int64),
    )
    return out


# ---------------------------------------------------------------------------
# weight-lattice references
# ---------------------------------------------------------------------------


def oracle_simplex_grid(num_components, step):
    """The weight lattice by its recursive definition: compositions in lexicographic order."""
    units = round(1.0 / step)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    rows = list(compositions(units, num_components))
    return np.array(rows, dtype=np.float64).reshape(-1, num_components) / units


def chunked_cache_loglik(kernels, cache, weights, start=0, stop=None):
    """Range log-likelihood per weight vector, accumulated chunk by chunk.

    Every chunk of 256 weight vectors resolves the range's coefficient rows
    of each degree again and, for each run of them whose index in the
    degree's block has the same ``row // limit`` (``limit =
    events._BUILD_CHUNK_ELEMENTS // min(C, 256)``, at least 1), adds the
    column sums of a fresh log(coefficients @ monomials) array; then it adds
    the row-path batches of at most ``limit`` orderings or one increment, in
    that order.  ``kernels`` is the ``growthfit.likelihood`` module, and
    the budget is read through its ``events``: the block arithmetic is the
    package's, the resolution and accumulation order are this reference's
    own.
    """
    single = weights.ndim == 1
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    stop = cache.num_increments if stop is None else stop
    width = min(w.shape[0], 256)
    limit = max(1, kernels._events._BUILD_CHUNK_ELEMENTS // width)
    out = np.full(w.shape[0], float(cache.logp_rand[start:stop].sum()))
    for lo in range(0, w.shape[0], 256):
        chunk = w[lo : lo + 256]
        for degree in range(1, len(cache.poly_offsets) - 1):
            incs = cache.poly_increments[cache.poly_offsets[degree] : cache.poly_offsets[degree + 1]]
            a, b = np.searchsorted(incs, (start, stop))
            size = len(kernels._monomial_exponents(w.shape[1], degree))
            base = cache.poly_coef_offsets[degree]
            cuts = [a, *range((a // limit + 1) * limit, b, limit), b] if a < b else []
            for x, y in zip(cuts, cuts[1:]):
                coefs = cache.poly_coefs[base + x * size : base + y * size].reshape(y - x, size)
                with np.errstate(divide="ignore"):
                    values = np.log(coefs @ kernels._monomials(chunk, degree))
                out[lo : lo + 256] += values.sum(axis=0)
        a, b = np.searchsorted(cache.row_increments, (start, stop))
        incs = cache.row_increments[a:b]
        orderings = cache.increment_offsets[incs + 1] - cache.increment_offsets[incs]
        for x, y in kernels._batches(orderings, limit):
            out[lo : lo + 256] += kernels._row_logratios(cache, incs[x:y], chunk).sum(axis=0)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# chi-square tail and Student-t quantile oracles
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


def oracle_t_quantile(prob, df):
    """Student-t quantile for prob > 0.5: bisection on a quadrature tail.

    The tail is integrated from the unnormalised density and divided by its
    half-line integral, so no gamma-function constant enters.  Bisection
    runs down to two adjacent doubles and returns the upper one.
    """

    def density(s):
        return math.exp(-(df + 1) / 2.0 * math.log1p(s * s / df))

    def upper(t):
        value, _err = integrate.quad(density, t, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        return value

    target = 2.0 * (1.0 - prob) * upper(0.0)
    lo, hi = 0.0, 1.0
    while upper(hi) > target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if upper(mid) > target:
            lo = mid
        else:
            hi = mid


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


# ---------------------------------------------------------------------------
# ingest oracle: an edge list parsed, cleaned and grouped record by record
# ---------------------------------------------------------------------------


def oracle_ingest(path):
    """(labels, increments, cleaning counts) of an edge-list file, one record at a time.

    Increments are (timestamp, center, center_is_new, targets, targets_new)
    tuples.  Rows are stable-sorted by timestamp, then dropped as self-loops,
    repeats of an admitted pair, or rows touching no admitted node; stars
    are runs of equal (timestamp, source), and node ids follow first
    appearance, center before targets.  A malformed row raises
    ``OracleRejection("StreamParseError", "line N")``.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            src, dst, ts = (f.strip() for f in fields) if len(fields) == 3 else ("", "", "")
            try:
                timestamp = int(ts)
            except ValueError:
                timestamp = None
            if not src or not dst or timestamp is None or not -(2**63) <= timestamp < 2**63:
                raise OracleRejection("StreamParseError", f"line {lineno}")
            records.append((src, dst, timestamp))
    ordered = sorted(records, key=lambda r: r[2])
    counts = {"input_records": len(ordered), "kept": 0, "self_loops": 0, "duplicates": 0,
              "disconnected": 0}
    adjacency = {}
    kept = []
    for src, dst, ts in ordered:
        if src == dst:
            counts["self_loops"] += 1
        elif dst in adjacency.get(src, ()):
            counts["duplicates"] += 1
        elif adjacency and src not in adjacency and dst not in adjacency:
            counts["disconnected"] += 1
        else:
            kept.append((src, dst, ts))
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set()).add(src)
    counts["kept"] = len(kept)
    ids = {}
    increments = []
    i = 0
    while i < len(kept):
        j = i + 1
        while j < len(kept) and kept[j][2] == kept[i][2] and kept[j][0] == kept[i][0]:
            j += 1
        before = len(ids)
        center = ids.setdefault(kept[i][0], before)
        targets = [ids.setdefault(dst, len(ids)) for _, dst, _ in kept[i:j]]
        increments.append(
            (kept[i][2], center, center == before, tuple(targets),
             tuple(t >= before for t in targets))
        )
        i = j
    return list(ids), increments, counts
